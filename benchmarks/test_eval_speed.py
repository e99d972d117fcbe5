"""Evaluation-layer speed — vectorized vs scalar scoring (§7.1).

The ISSUE-4 tentpole: on the default intra-Europe scenario (150
configs, ~40k calls/day), ``evaluate_batch`` must score a day at least
3x faster than the scalar ``evaluate_assignment`` reference of
``tests/scalar_reference.py`` — both on an oracle-mode assignment table
and on a §8 controller day's ``AssignmentBatch`` (where the scalar path
also pays the dict-table round trip) — while reproducing every metric.
"""

import time

import pytest

from repro.analysis.metrics import evaluate_batch, realized_assignment_table
from repro.core.controller import FirstJoinerWrr
from repro.core.policies import WrrPolicy
from repro.core.titan_next import build_europe_setup, oracle_demand_for_day
from repro.workload.demand import SLOTS_PER_DAY
from repro.workload.traces import TraceGenerator
from tests.scalar_reference import evaluate_assignment

pytestmark = pytest.mark.slow

REQUIRED_EVAL_SPEEDUP = 3.0
DAY = 2
TRACE_DAY = 30


@pytest.fixture(scope="module")
def default_setup():
    """Default Europe scenario (§7.3 scale: 150 configs, 40k calls)."""
    return build_europe_setup()


def _best_of(fn, rounds=3):
    """Minimum wall-clock over a few rounds (damps scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _assert_same_metrics(batch, scalar):
    assert batch.total_calls == pytest.approx(scalar.total_calls, rel=1e-9)
    assert batch.sum_of_peaks_gbps == pytest.approx(scalar.sum_of_peaks_gbps, rel=1e-9)
    assert batch.total_wan_traffic == pytest.approx(scalar.total_wan_traffic, rel=1e-9)
    assert batch.internet_share == pytest.approx(scalar.internet_share, rel=1e-9)
    assert batch.mean_e2e_ms() == pytest.approx(scalar.mean_e2e_ms(), rel=1e-9)
    assert batch.percentile_e2e_ms(95) == pytest.approx(
        scalar.percentile_e2e_ms(95), rel=1e-9
    )


def test_oracle_table_scoring_is_3x_faster(default_setup):
    setup = default_setup
    demand = oracle_demand_for_day(setup, DAY)
    table = WrrPolicy(setup.scenario).assign(demand)

    t_ref, scalar = _best_of(lambda: evaluate_assignment(setup.scenario, table, "wrr"))
    t_new, batch = _best_of(lambda: evaluate_batch(setup.scenario, table, "wrr"))
    _assert_same_metrics(batch, scalar)

    speedup = t_ref / t_new
    print(
        f"\noracle table scoring: scalar {t_ref * 1e3:.1f} ms, "
        f"batched {t_new * 1e3:.1f} ms -> {speedup:.1f}x ({len(table)} rows)"
    )
    assert speedup >= REQUIRED_EVAL_SPEEDUP


def test_assignment_batch_scoring_is_3x_faster(default_setup):
    setup = default_setup
    trace = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=71)
    calls = trace.table_for_day(TRACE_DAY)
    batch = FirstJoinerWrr(setup.scenario, seed=73).process_table(calls)

    def scalar_path():
        # How §8 days were scored before the batch path existed: fold
        # the AssignmentBatch into a dict table, then walk it.
        table = realized_assignment_table(batch, SLOTS_PER_DAY)
        return evaluate_assignment(setup.scenario, table, "wrr")

    t_ref, scalar = _best_of(scalar_path)
    t_new, batched = _best_of(lambda: evaluate_batch(setup.scenario, batch, "wrr"))
    _assert_same_metrics(batched, scalar)

    speedup = t_ref / t_new
    print(
        f"\nassignment-batch scoring: scalar {t_ref * 1e3:.1f} ms, "
        f"batched {t_new * 1e3:.1f} ms -> {speedup:.1f}x ({len(batch)} calls)"
    )
    assert speedup >= REQUIRED_EVAL_SPEEDUP
