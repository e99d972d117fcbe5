"""Forecast-path speed — batched demand + Holt-Winters vs the scalar path.

The ISSUE-2 tentpole: on the default 150-config intra-Europe scenario
the batched forecast pipeline (``counts_matrix`` history window +
``fit_many`` + matrix regrouping) must make ``predicted_demand_for_day``
at least 5x faster than the per-config scalar reference
(``tests/scalar_reference.py``), and the end-to-end
``run_prediction_day`` at least 3x faster than the same day driven by
the scalar forecaster — while producing the same tables, plans, and
realized assignment statistics.  A Titan-Next window through
``SweepRunner`` must place every call as ``run_prediction_day`` does for
each day on this default Europe setup (150 configs, 40k calls/day, days
30-32): both plan through the setup's one cached LP structure (RHS
refresh + a solve from the slack basis per day), so the days match by
construction; the single days plan on a cold copy of the setup, so both
sides run HiGHS.
"""

import time
from dataclasses import replace

import pytest

from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.core.sweep import SweepRunner
from repro.core.titan_next import (
    build_europe_setup,
    predicted_demand_for_day,
    run_prediction_day,
)
from tests.scalar_reference import (
    ScalarPlan,
    ScalarTitanNext,
    ScalarTraceGenerator,
    predicted_demand_for_day_reference,
)
from tests.test_sweep_parallel import titan_next_days

pytestmark = pytest.mark.slow

REQUIRED_FORECAST_SPEEDUP = 5.0
REQUIRED_DAY_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def default_setup():
    """Default Europe scenario (§7.3 scale: 150 configs, 40k calls)."""
    return build_europe_setup()


def _best_of(fn, rounds=2):
    """Minimum wall-clock over a few rounds (damps scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _reference_prediction_day(setup, day, seed=71):
    """The pre-batching titan-next day: scalar forecasts, fresh LP."""
    weekend = day % 7 >= 5
    options = JointLpOptions(e2e_bound_ms=80.0 if weekend else 75.0)
    predicted = predicted_demand_for_day_reference(setup, day)
    solved = JointAssignmentLp(setup.scenario, predicted, options).solve()
    assert solved.is_optimal
    plan = ScalarPlan.from_assignment(solved.assignment)
    controller = ScalarTitanNext(setup.scenario, plan, seed=seed + 1)
    trace = ScalarTraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=seed)
    return [controller.process(call) for call in trace.calls_for_day(day)], controller.stats


def test_batched_forecast_is_5x_faster_with_identical_table(default_setup):
    setup = default_setup
    t_ref, ref = _best_of(lambda: predicted_demand_for_day_reference(setup, 30))
    t_new, new = _best_of(lambda: predicted_demand_for_day(setup, 30))

    assert set(new) == set(ref)
    for key, value in ref.items():
        assert new[key] == pytest.approx(value, rel=1e-9, abs=1e-9)

    speedup = t_ref / t_new
    print(
        f"\npredicted_demand_for_day: scalar {t_ref * 1e3:.0f} ms, "
        f"batched {t_new * 1e3:.0f} ms -> {speedup:.1f}x ({len(new)} entries)"
    )
    assert speedup >= REQUIRED_FORECAST_SPEEDUP


def test_prediction_day_is_3x_faster_end_to_end(default_setup):
    setup = default_setup
    t_ref, (ref_assignments, ref_stats) = _best_of(
        lambda: _reference_prediction_day(setup, 30), rounds=1
    )
    # A cold copy per round: the plan cache's memo must not serve round 2.
    t_new, results = _best_of(
        lambda: run_prediction_day(replace(setup), 30, policies=("titan-next",)), rounds=2
    )
    result = results["titan-next"]

    # Same forecasts -> same plan -> the controller replays identically.
    assert result.stats == ref_stats
    assert [
        (a.call.call_id, a.final_dc, a.final_option) for a in result.assignments
    ] == [(a.call.call_id, a.final_dc, a.final_option) for a in ref_assignments]

    speedup = t_ref / t_new
    print(
        f"\nrun_prediction_day: scalar-forecast {t_ref:.2f} s, "
        f"batched {t_new:.2f} s -> {speedup:.1f}x ({result.stats.calls} calls)"
    )
    assert speedup >= REQUIRED_DAY_SPEEDUP


def test_prediction_sweep_matches_fresh_per_day_plans(default_setup):
    setup = default_setup
    days = [30, 31, 32]
    t_sweep, sweep = _best_of(lambda: titan_next_days(SweepRunner(setup), days), rounds=1)

    per_day_planning = 0.0
    single_setup = replace(setup)
    for day in days:
        start = time.perf_counter()
        fresh = run_prediction_day(single_setup, day, policies=("titan-next",))["titan-next"]
        per_day_planning += time.perf_counter() - start
        cached = sweep[day]
        # Identical plans: the cached LP must reproduce the fresh
        # optimum, so the controller realizes the same stream.
        assert cached.stats == fresh.stats
        assert [
            (a.call.call_id, a.final_dc, a.final_option) for a in cached.assignments
        ] == [(a.call.call_id, a.final_dc, a.final_option) for a in fresh.assignments]

    print(
        f"\nprediction sweep over {len(days)} days: {t_sweep:.2f} s windowed "
        f"vs {per_day_planning:.2f} s day by day"
    )
