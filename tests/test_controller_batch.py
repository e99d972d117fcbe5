"""Batch controller paths vs the scalar references.

For identical uniform streams on the Europe scenario, every
controller's ``process_table`` reproduces the scalar per-call loop —
the same :class:`ControllerStats` *and* the same per-call placements.
The first-joiner baselines admit in bulk, so they are also checked
where that is hardest: under heavy contention, on tables that are not
slot-major, across split tables, and with participant countries outside
the scenario (the tracker's side ledger) — down to the tracker's usage
arrays, bit for bit.
"""

import numpy as np
import pytest

from repro.core.capacity import InternetCapacityBook
from repro.core.controller import (
    AssignmentBatch,
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
    TitanNextController,
)
from repro.core.lp import JointAssignmentLp
from repro.core.plan import OfflinePlan
from repro.core.scenario import Scenario
from repro.core.titan_next import oracle_demand_for_day, run_prediction_day
from repro.workload.configs import CallConfig
from repro.workload.traces import CallTable, TraceGenerator


@pytest.fixture(scope="module")
def plan_assignment(small_setup):
    demand = oracle_demand_for_day(small_setup, day=30)
    result = JointAssignmentLp(small_setup.scenario, demand).solve()
    assert result.is_optimal
    return result.assignment


@pytest.fixture(scope="module")
def day_table(small_setup):
    generator = TraceGenerator(
        small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
    )
    return generator.table_for_window(30 * 48 + 14, 10)


def _placements(assignments):
    return [
        (a.call.call_id, a.initial_dc, a.initial_option, a.final_dc, a.final_option)
        for a in assignments
    ]


class TestBatchEquivalence:
    def test_titan_next_matches_scalar(self, small_setup, plan_assignment, day_table):
        scalar = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        batched = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        reference = [scalar.process(call) for call in day_table.to_calls()]
        batch = batched.process_table(day_table)
        assert _placements(batch) == _placements(reference)
        assert batched.stats == scalar.stats
        assert batch.dc_migrations == scalar.stats.dc_migrations
        assert batch.option_migrations == scalar.stats.option_migrations

    def test_titan_next_raw_configs_match_scalar(self, small_setup, plan_assignment, day_table):
        scalar = TitanNextController(
            small_setup.scenario,
            OfflinePlan.from_assignment(plan_assignment),
            seed=7,
            reduce_configs=False,
        )
        batched = TitanNextController(
            small_setup.scenario,
            OfflinePlan.from_assignment(plan_assignment),
            seed=7,
            reduce_configs=False,
        )
        reference = [scalar.process(call) for call in day_table.to_calls()]
        assert _placements(batched.process_table(day_table)) == _placements(reference)
        assert batched.stats == scalar.stats

    @pytest.mark.parametrize(
        "make",
        [
            lambda scenario: FirstJoinerWrr(scenario, seed=3),
            lambda scenario: FirstJoinerLf(scenario),
            lambda scenario: FirstJoinerTitan(scenario, seed=4),
        ],
        ids=["wrr", "lf", "titan"],
    )
    def test_baseline_matches_scalar(self, small_setup, day_table, make):
        scalar = make(small_setup.scenario)
        batched = make(small_setup.scenario)
        reference = [scalar.process(call) for call in day_table.to_calls()]
        batch = batched.process_table(day_table)
        assert _placements(batch) == _placements(reference)
        assert batched.stats == scalar.stats
        assert batched.stats.calls == len(day_table)

    def test_split_tables_equal_one_continuous_pass(self, small_setup, plan_assignment):
        """Successive process_table calls behave like one stream: the
        quota snapshot, uniform buffer, and recent-config state carry
        over, so splitting a window matches the scalar loop over all
        calls."""
        generator = TraceGenerator(
            small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
        )
        first = generator.table_for_window(30 * 48 + 14, 5)
        second = generator.table_for_window(30 * 48 + 19, 5, id_offset=len(first))
        scalar = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        batched = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        reference = [scalar.process(call) for call in first.to_calls() + second.to_calls()]
        batch = _placements(batched.process_table(first)) + _placements(
            batched.process_table(second)
        )
        assert batch == _placements(reference)
        assert batched.stats == scalar.stats

    def test_scalar_after_batch_rejected(self, small_setup, plan_assignment, day_table):
        """Mixing scalar process() after process_table() would double-
        spend quota against the untouched plan — it must fail loudly."""
        controller = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        controller.process_table(day_table)
        with pytest.raises(RuntimeError, match="process_table"):
            controller.process(day_table.call(0))

    def test_empty_table(self, small_setup, plan_assignment, day_table):
        empty = day_table.__class__(
            day_table.configs,
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        for controller in (
            TitanNextController(small_setup.scenario, OfflinePlan.from_assignment(plan_assignment)),
            FirstJoinerWrr(small_setup.scenario),
            FirstJoinerLf(small_setup.scenario),
            FirstJoinerTitan(small_setup.scenario),
        ):
            batch = controller.process_table(empty)
            assert len(batch) == 0
            assert batch.to_list() == []


def _scaled_copy(scenario, factor, extra_gbps=None):
    """``scenario`` with compute caps and every pair's Internet Gbps
    scaled by ``factor``; ``extra_gbps`` adds ``{(country, dc): Gbps}``."""
    book = InternetCapacityBook()
    book.restore(
        {
            key: (fraction, gbps * factor, disabled)
            for key, (fraction, gbps, disabled) in scenario.capacity_book.snapshot().items()
        }
    )
    for (country, dc), gbps in (extra_gbps or {}).items():
        book.set_gbps(country, dc, gbps)
    return Scenario(
        scenario.world,
        scenario.latency,
        scenario.country_codes,
        scenario.dc_codes,
        book,
        compute_caps={dc: cap * factor for dc, cap in scenario.compute_caps.items()},
        slots_per_day=scenario.slots_per_day,
    )


def _permuted(table, seed):
    order = np.random.default_rng(seed).permutation(len(table))
    return CallTable(
        table.configs,
        table.config_idx[order],
        table.start_slot[order],
        table.duration_slots[order],
        table.first_joiner_idx[order],
    )


def _replay_both(scenario, tables, make):
    """Scalar loop over all tables vs one batch call per table; asserts
    equal placements, stats and tracker usage, returns the scalar one."""
    scalar, batched = make(scenario), make(scenario)
    reference = [scalar.process(call) for table in tables for call in table.to_calls()]
    placements = []
    for table in tables:
        placements += _placements(batched.process_table(table))
    assert placements == _placements(reference)
    assert batched.stats == scalar.stats
    for usage in ("_compute", "_internet"):
        ours, theirs = getattr(batched.tracker, usage), getattr(scalar.tracker, usage)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
    assert batched.tracker._extra_internet == scalar.tracker._extra_internet
    return scalar


FIRST_JOINER = pytest.mark.parametrize(
    "make",
    [lambda scenario: FirstJoinerWrr(scenario, seed=3), lambda scenario: FirstJoinerLf(scenario)],
    ids=["wrr", "lf"],
)


@pytest.fixture(scope="module")
def contended(small_setup):
    """A fifth of the compute and Internet capacity: most slots overflow."""
    return _scaled_copy(small_setup.scenario, 0.2)


class TestBulkAdmissionEquivalence:
    @FIRST_JOINER
    def test_contended_matches_scalar(self, contended, day_table, make):
        scalar = _replay_both(contended, [day_table], make)
        assert scalar.stats.unplanned > len(day_table) // 4
        assert scalar.tracker._internet.any()

    @FIRST_JOINER
    def test_unordered_rows_match_scalar(self, small_setup, contended, make):
        generator = TraceGenerator(
            small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
        )
        table = _permuted(generator.table_for_day(30), seed=11)
        assert (np.diff(table.start_slot) < 0).any()
        _replay_both(contended, [table], make)

    @FIRST_JOINER
    def test_split_tables_match_one_scalar_pass(self, small_setup, contended, make):
        generator = TraceGenerator(
            small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
        )
        first = generator.table_for_window(30 * 48 + 14, 5)
        second = generator.table_for_window(30 * 48 + 19, 5, id_offset=len(first))
        _replay_both(contended, [first, second], make)

    @FIRST_JOINER
    def test_side_ledger_matches_scalar(self, small_setup, make):
        """A participant country outside the scenario has no dense
        usage row: its Internet load goes to the tracker's side ledger,
        which must fill (and refuse) exactly as in the scalar loop."""
        scenario = small_setup.scenario
        outside = "US"
        assert outside not in scenario.country_codes
        scaled = _scaled_copy(
            scenario, 0.5, {(outside, dc): 0.02 for dc in scenario.dc_codes}
        )
        configs = [
            CallConfig.from_counts({"GB": 2, outside: 1}, "video"),
            CallConfig.from_counts({"GB": 3}, "video"),
            CallConfig.from_counts({"FR": 1, outside: 2}, "audio"),
        ]
        rng = np.random.default_rng(2)
        n = 600
        config_idx = rng.integers(0, len(configs), n)
        table = CallTable(
            configs,
            config_idx,
            np.sort(30 * 48 + rng.integers(0, 6, n)),
            rng.integers(1, 4, n),
            np.zeros(n, dtype=np.int64),  # GB / FR: first by code
        )
        scalar = _replay_both(scaled, [table], make)
        assert scalar.tracker._extra_internet


class TestAssignmentBatch:
    def test_views_and_counters(self, small_setup, day_table):
        controller = FirstJoinerTitan(small_setup.scenario, seed=4)
        batch = controller.process_table(day_table)
        assert isinstance(batch, AssignmentBatch)
        assert len(batch) == len(day_table)
        first = batch[0]
        assert first.call == day_table.call(0)
        assert batch[-1].call == day_table.call(len(day_table) - 1)
        # Titan never migrates: initial and final always agree.
        assert batch.dc_migrations == 0
        assert batch.option_migrations == 0
        assert all(not a.dc_migrated for a in batch)

    def test_realized_table_matches_per_call_accumulation(self, small_setup, day_table):
        from repro.analysis.metrics import realized_assignment_table

        controller = FirstJoinerWrr(small_setup.scenario, seed=3)
        batch = controller.process_table(day_table)
        vectorized = realized_assignment_table(batch, slots_per_day=48)
        manual = {}
        for a in batch:
            key = (a.call.start_slot % 48, a.call.config, a.final_dc, a.final_option)
            manual[key] = manual.get(key, 0.0) + 1.0
        assert vectorized == manual


@pytest.mark.slow
class TestPipelineBatchPaths:
    def test_run_prediction_day_returns_batches_with_stats(self, small_setup):
        results = run_prediction_day(small_setup, day=30)
        for name, result in results.items():
            assert isinstance(result.assignments, AssignmentBatch)
            assert result.stats is not None
            assert result.stats.calls == len(result.assignments)
            table = result.realized_table()
            assert sum(table.values()) == pytest.approx(len(result.assignments))
        # Baselines never migrate; titan-next does its reconciliation.
        assert results["wrr"].stats.dc_migrations == 0
        assert results["lf"].stats.dc_migrations == 0
        assert results["titan"].stats.dc_migrations == 0
