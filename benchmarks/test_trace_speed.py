"""Trace-synthesis and controller-day speed — batch vs scalar paths.

On the default 150-config intra-Europe scenario (~40k calls/day),
``TraceGenerator.table_for_day`` must synthesize one day's calls at
least 5x faster than the scalar per-call reference
(``tests/scalar_reference.py``), and a full Titan-Next controller day
through ``process_table`` — an exact bulk replay, no per-call loop —
must run at least 8x faster than the scalar per-call loop (~14x
measured on a 2-vCPU host; the per-call batch loop it replaced ran ~4x)
— while reproducing the scalar calls, placements, and
:class:`ControllerStats` exactly.  The controller speedup is
recorded in ``BENCH_trace_speed.json``.

The first-joiner WRR and LF baselines admit a day in bulk: on a
200k-call Europe day (~136k calls, capacity binding at the peak) their
``process_table`` must reproduce the scalar loop and run at least 2.5x
faster than it; both speedups are recorded in ``BENCH_trace_speed.json``.
"""

import time

import pytest

from repro.core.controller import FirstJoinerLf, FirstJoinerWrr, TitanNextController
from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.core.plan import OfflinePlan
from repro.core.titan_next import build_europe_setup, predicted_demand_for_day
from repro.workload.traces import TraceGenerator
from tests.scalar_reference import (
    ScalarLf,
    ScalarPlan,
    ScalarTitanNext,
    ScalarTraceGenerator,
    ScalarWrr,
)

pytestmark = pytest.mark.slow

REQUIRED_TRACE_SPEEDUP = 5.0
REQUIRED_CONTROLLER_SPEEDUP = 8.0
REQUIRED_BASELINE_SPEEDUP = 2.5
DAY = 30


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


def test_table_synthesis_is_5x_faster_with_identical_calls(default_setup):
    setup = default_setup
    reference = ScalarTraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=71)
    batched = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=71)
    t_ref, calls = _best_of(lambda: reference.calls_for_day(DAY))
    t_new, table = _best_of(lambda: batched.table_for_day(DAY))

    assert len(table) == len(calls)
    assert table.to_calls() == calls

    speedup = t_ref / t_new
    print(
        f"\ntrace synthesis: scalar {t_ref * 1e3:.0f} ms, "
        f"batched {t_new * 1e3:.0f} ms -> {speedup:.1f}x ({len(calls)} calls)"
    )
    assert speedup >= REQUIRED_TRACE_SPEEDUP


def test_controller_day_is_8x_faster_with_identical_stats(default_setup, record_bench):
    setup = default_setup
    options = JointLpOptions(e2e_bound_ms=75.0)
    predicted = predicted_demand_for_day(setup, DAY)
    solved = JointAssignmentLp(setup.scenario, predicted, options).solve()
    assert solved.is_optimal

    table = TraceGenerator(
        setup.demand, top_n_configs=setup.top_n_configs, seed=71
    ).table_for_day(DAY)
    calls = table.to_calls()

    def scalar_day():
        controller = ScalarTitanNext(
            setup.scenario, ScalarPlan.from_assignment(solved.assignment), seed=72
        )
        return [controller.process(call) for call in calls], controller.stats

    def batched_day():
        controller = TitanNextController(
            setup.scenario, OfflinePlan.from_assignment(solved.assignment), seed=72
        )
        return controller.process_table(table), controller.stats

    t_ref, (ref_assignments, ref_stats) = _best_of(scalar_day)
    t_new, (batch, batch_stats) = _best_of(batched_day)

    assert batch_stats == ref_stats
    assert [
        (a.call.call_id, a.initial_dc, a.initial_option, a.final_dc, a.final_option)
        for a in batch
    ] == [
        (a.call.call_id, a.initial_dc, a.initial_option, a.final_dc, a.final_option)
        for a in ref_assignments
    ]

    speedup = t_ref / t_new
    print(
        f"\ncontroller day: scalar {t_ref:.2f} s, batched {t_new:.2f} s "
        f"-> {speedup:.1f}x ({ref_stats.calls} calls, "
        f"{ref_stats.dc_migration_rate:.1%} DC migrations)"
    )
    record_bench(speedup=round(speedup, 2), calls=ref_stats.calls)
    assert speedup >= REQUIRED_CONTROLLER_SPEEDUP


@pytest.mark.parametrize("policy", ["wrr", "lf"])
def test_first_joiner_day_is_2_5x_faster_with_identical_placements(policy, record_bench):
    setup = build_europe_setup(daily_calls=200_000)
    table = TraceGenerator(
        setup.demand, top_n_configs=setup.top_n_configs, seed=71
    ).table_for_day(DAY)
    calls = table.to_calls()

    def make(scalar):
        if policy == "wrr":
            return (ScalarWrr if scalar else FirstJoinerWrr)(setup.scenario, seed=73)
        return (ScalarLf if scalar else FirstJoinerLf)(setup.scenario)

    def scalar_day():
        controller = make(scalar=True)
        return [controller.process(call) for call in calls], controller.stats

    def batched_day():
        controller = make(scalar=False)
        return controller.process_table(table), controller.stats

    t_ref, (ref_assignments, ref_stats) = _best_of(scalar_day)
    t_new, (batch, batch_stats) = _best_of(batched_day)

    assert batch_stats == ref_stats
    assert ref_stats.unplanned > 0  # capacity binds somewhere in the day
    assert [(a.call.call_id, a.initial_dc, a.initial_option) for a in batch] == [
        (a.call.call_id, a.initial_dc, a.initial_option) for a in ref_assignments
    ]

    speedup = t_ref / t_new
    print(
        f"\n{policy} day: scalar {t_ref:.2f} s, batched {t_new:.2f} s "
        f"-> {speedup:.1f}x ({ref_stats.calls} calls, {ref_stats.unplanned} overflowed)"
    )
    record_bench(speedup=round(speedup, 2), calls=ref_stats.calls)
    assert speedup >= REQUIRED_BASELINE_SPEEDUP
