"""Tests for the 30-minute rolling re-planner (§6.3)."""

import numpy as np
import pytest

from repro.core.replanner import RollingPlanner
from repro.core.titan_next import _table_from_matrix, oracle_demand_for_day
from repro.net.latency import INTERNET
from repro.workload.configs import CallConfig
from repro.workload.demand import SLOTS_PER_DAY
from repro.workload.media import AUDIO

DAY = 2


@pytest.fixture(scope="module")
def raw_configs(small_setup):
    return [item.config for item in small_setup.universe.top(small_setup.top_n_configs)]


@pytest.fixture(scope="module")
def day_counts(small_setup):
    """Day 2's sampled counts: (raw configs, slots) in top-config order."""
    return small_setup.demand.counts_matrix(
        DAY * SLOTS_PER_DAY, SLOTS_PER_DAY, top_n=small_setup.top_n_configs
    )


def impossible_spike(day_counts, raw_configs, slot):
    """``day_counts`` with 100× the day's calls of one config in ``slot``."""
    config = CallConfig.from_counts({"FR": 1}, AUDIO)
    spiked = day_counts.astype(float)
    spiked[raw_configs.index(config), slot] = 100.0 * day_counts.sum()
    return spiked


def plan_buckets(plan):
    """Every entry's buckets, in plan order (entries and buckets)."""
    return [(key, list(entry.buckets.items())) for key, entry in plan.items()]


class TestRollingPlanner:
    def test_single_replan_builds_full_plan(self, small_setup, day_counts):
        planner = RollingPlanner(small_setup)
        assert planner.replan(day_counts, from_slot=0)
        # Quotas cover the whole day's demand.
        total_quota = sum(entry.total() for _, entry in planner.plan.items())
        day_demand = oracle_demand_for_day(small_setup, day=DAY)
        assert total_quota == pytest.approx(sum(day_demand.values()), rel=1e-6)

    def test_replan_preserves_past_slots(self, small_setup, day_counts):
        planner = RollingPlanner(small_setup)
        planner.replan(day_counts, from_slot=0)
        before = {
            (t, c): dict(entry.buckets) for (t, c), entry in planner.plan.items() if t < 20
        }
        planner.replan(day_counts, from_slot=20)
        after = {
            (t, c): dict(entry.buckets) for (t, c), entry in planner.plan.items() if t < 20
        }
        assert before == after

    def test_capacity_change_mid_day_shifts_future_plan(self, small_setup, day_counts):
        """An emergency brake mid-day must drain future Internet quotas."""
        planner = RollingPlanner(small_setup)
        planner.replan(day_counts, from_slot=0)

        def internet_quota(from_slot):
            return sum(
                count
                for (t, c), entry in planner.plan.items()
                if t >= from_slot
                for (dc, option), count in entry.buckets.items()
                if option == INTERNET
            )

        before = internet_quota(24)
        # Titan pulls the brake on every pair at slot 24.
        planner.replan(day_counts, from_slot=24, capacity=(lambda *_: 0.0, None))
        assert internet_quota(24) == 0.0
        assert before > 0.0

    def test_infeasible_round_keeps_previous_plan(self, small_setup, day_counts, raw_configs):
        planner = RollingPlanner(small_setup)
        planner.replan(day_counts, from_slot=0)
        entries_before = plan_buckets(planner.plan)
        # An impossible demand spike: 100x the day's calls in one slot.
        assert not planner.replan(impossible_spike(day_counts, raw_configs, 30), from_slot=30)
        assert planner.infeasible_rounds == 1
        assert plan_buckets(planner.plan) == entries_before

    def test_empty_remaining_demand_is_trivial_success(self, small_setup, day_counts):
        planner = RollingPlanner(small_setup)
        assert planner.replan(np.zeros_like(day_counts), from_slot=47)
        assert planner.events[-1].solved
        # Demand only before the round's slot leaves nothing to plan.
        early = day_counts.copy()
        early[:, 40:] = 0
        assert planner.replan(early, from_slot=40)
        assert planner.events[-1].columns == 0
        assert not planner.plan.items()

    def test_negative_from_slot_raises(self, small_setup, day_counts):
        """A negative slot would splice the whole day under a replan."""
        planner = RollingPlanner(small_setup)
        with pytest.raises(ValueError, match="from_slot must be >= 0"):
            planner.replan(day_counts, from_slot=-1)
        assert not planner.events
        assert not planner.plan.items()

    def test_estimate_of_another_shape_raises(self, small_setup, day_counts):
        planner = RollingPlanner(small_setup)
        with pytest.raises(ValueError, match="estimate matrix has shape"):
            planner.replan(day_counts[:-1], from_slot=0)
        assert not planner.events

    def test_events_record_each_rounds_shrinking_horizon(
        self, small_setup, day_counts, raw_configs
    ):
        """``ReplanEvent.columns`` is the LP columns a round loaded: the
        whole LP at slot 0, fewer every later round, the same count for
        an infeasible round, and 0 when nothing was left to plan."""
        planner = RollingPlanner(small_setup)
        cache = planner.plan_cache
        for from_slot in range(0, 48, 8):
            assert planner.replan(day_counts, from_slot=from_slot)
        columns = [event.columns for event in planner.events]
        assert columns[0] == cache.num_variables
        assert columns == [cache.horizon_columns(slot) for slot in range(0, 48, 8)]
        assert all(later < earlier for earlier, later in zip(columns, columns[1:]))
        assert not planner.replan(impossible_spike(day_counts, raw_configs, 44), from_slot=44)
        assert planner.events[-1].columns == cache.horizon_columns(44)
        assert planner.replan(np.zeros_like(day_counts), from_slot=47)
        assert planner.events[-1].columns == 0


def splice(reference, from_slot, assignment):
    """The per-round splice the planner's column vector replaces, on a
    ``(slot, config) -> {(dc, option): count}`` dict: drop every entry
    at or after ``from_slot``, then add the round's positive counts."""
    for key in [key for key in reference if key[0] >= from_slot]:
        del reference[key]
    for (t, config, dc, option), count in assignment.items():
        if count > 0 and t >= from_slot:
            buckets = reference.setdefault((t, config), {})
            buckets[(dc, option)] = buckets.get((dc, option), 0.0) + count


class TestSplicedColumns:
    """The plan built from the planner's column vector equals the plan
    the per-round table path spliced together."""

    def test_plan_equals_the_spliced_table_plan(self, small_setup, raw_configs):
        estimate = small_setup.demand.expected_matrix(
            DAY * SLOTS_PER_DAY, SLOTS_PER_DAY, top_n=small_setup.top_n_configs
        )
        rounds = {slot: estimate for slot in range(0, 48, 8)}
        rounds[24] = impossible_spike(estimate, raw_configs, 30)  # infeasible
        rounds[40] = estimate.copy()
        rounds[40][:, 40:] = 0.0  # nothing left to plan
        planner = RollingPlanner(small_setup)
        cache = planner.plan_cache
        reference = {}
        for from_slot, matrix in rounds.items():
            solved = planner.replan(matrix, from_slot=from_slot)
            assert solved == (from_slot != 24)
            table = _table_from_matrix(matrix, raw_configs, True)
            remaining = {k: v for k, v in table.items() if k[0] >= from_slot and v > 0}
            if remaining:
                result = cache.solve_day(
                    remaining, e2e_bound_ms=planner.e2e_bound_ms, from_slot=from_slot
                )
                if result.is_optimal:
                    splice(reference, from_slot, result.assignment)
            plan = planner.plan
            assert [key for key, _ in plan.items()] == list(reference)
            for key, entry in plan.items():
                assert list(entry.buckets.items()) == list(reference[key].items())
                assert entry.total() == sum(reference[key].values())
        assert planner.infeasible_rounds == 1
        assert planner.events[-1].columns == 0
        assert {t for t, _ in reference} == set(range(48))

    def test_past_slots_untouched_and_future_replaced(self, small_setup, day_counts):
        planner = RollingPlanner(small_setup)
        planner.replan(day_counts, from_slot=0)
        first = plan_buckets(planner.plan)
        expected = small_setup.demand.expected_matrix(
            DAY * SLOTS_PER_DAY, SLOTS_PER_DAY, top_n=small_setup.top_n_configs
        )
        assert planner.replan(expected, from_slot=20)
        alone = RollingPlanner(small_setup)
        assert alone.replan(expected, from_slot=20)
        spliced = plan_buckets(planner.plan)
        assert [item for item in spliced if item[0][0] < 20] == [
            item for item in first if item[0][0] < 20
        ]
        assert [item for item in spliced if item[0][0] >= 20] == plan_buckets(alone.plan)

    def test_stale_entries_dropped_without_replacement(self, small_setup, day_counts):
        planner = RollingPlanner(small_setup)
        planner.replan(day_counts, from_slot=0)
        assert any(t == 30 for t, _ in (key for key, _ in planner.plan.items()))
        without = day_counts.copy()
        without[:, 30] = 0
        planner.replan(without, from_slot=24)
        assert not any(t == 30 for t, _ in (key for key, _ in planner.plan.items()))
        assert any(t == 31 for t, _ in (key for key, _ in planner.plan.items()))

    def test_non_positive_and_past_counts_ignored(self, small_setup, day_counts):
        """Entries before the round's slot and non-positive estimates
        plan nothing; the slots with positive demand still do."""
        planner = RollingPlanner(small_setup)
        estimate = np.zeros(day_counts.shape)
        estimate[:, 1] = day_counts[:, 1] + 1.0  # before the horizon
        estimate[:, 3] = -1.0
        estimate[:, 4] = day_counts[:, 4]
        assert planner.replan(estimate, from_slot=2)
        slots = {t for (t, _), _ in planner.plan.items()}
        assert slots == {4}
