"""Tests for the 30-minute rolling re-planner (§6.3)."""

import pytest

from repro.core.replanner import RollingPlanner
from repro.core.titan_next import oracle_demand_for_day
from repro.net.latency import INTERNET
from repro.workload.configs import CallConfig
from repro.workload.media import AUDIO


@pytest.fixture(scope="module")
def day_demand(small_setup):
    return oracle_demand_for_day(small_setup, day=2)


class TestRollingPlanner:
    def test_single_replan_builds_full_plan(self, small_setup, day_demand):
        planner = RollingPlanner(small_setup)
        assert planner.replan(day_demand, from_slot=0)
        # Quotas cover the whole day's demand.
        total_quota = sum(
            entry.total() for entry in planner.plan._entries.values()
        )
        assert total_quota == pytest.approx(sum(day_demand.values()), rel=1e-6)

    def test_replan_preserves_past_slots(self, small_setup, day_demand):
        planner = RollingPlanner(small_setup)
        planner.replan(day_demand, from_slot=0)
        before = {
            (t, c): dict(entry.buckets)
            for (t, c), entry in planner.plan._entries.items()
            if t < 20
        }
        planner.replan(day_demand, from_slot=20)
        after = {
            (t, c): dict(entry.buckets)
            for (t, c), entry in planner.plan._entries.items()
            if t < 20
        }
        assert before == after

    def test_capacity_change_mid_day_shifts_future_plan(self, small_setup, day_demand):
        """An emergency brake mid-day must drain future Internet quotas."""
        planner = RollingPlanner(small_setup)
        planner.replan(day_demand, from_slot=0)

        def internet_quota(from_slot):
            return sum(
                count
                for (t, c), entry in planner.plan._entries.items()
                if t >= from_slot
                for (dc, option), count in entry.buckets.items()
                if option == INTERNET
            )

        before = internet_quota(24)
        # Titan pulls the brake on every pair at slot 24.
        planner.replan(day_demand, from_slot=24, capacity=(lambda *_: 0.0, None))
        assert internet_quota(24) == 0.0
        assert before > 0.0

    def test_infeasible_round_keeps_previous_plan(self, small_setup, day_demand):
        planner = RollingPlanner(small_setup)
        planner.replan(day_demand, from_slot=0)
        entries_before = len(planner.plan._entries)
        # An impossible demand spike: 100x the day's calls in one slot.
        config = CallConfig.from_counts({"FR": 1}, AUDIO)
        assert config in {c for _, c in day_demand}
        impossible = dict(day_demand)
        impossible[(30, config)] = 100.0 * sum(day_demand.values())
        assert not planner.replan(impossible, from_slot=30)
        assert planner.infeasible_rounds == 1
        assert len(planner.plan._entries) == entries_before

    def test_empty_remaining_demand_is_trivial_success(self, small_setup):
        planner = RollingPlanner(small_setup)
        assert planner.replan({}, from_slot=47)
        assert planner.events[-1].solved

    def test_negative_from_slot_raises(self, small_setup, day_demand):
        """A negative slot would splice the whole day under a replan."""
        planner = RollingPlanner(small_setup)
        with pytest.raises(ValueError, match="from_slot must be >= 0"):
            planner.replan(day_demand, from_slot=-1)
        assert not planner.events
        assert not planner.plan._entries

    def test_events_record_each_rounds_shrinking_horizon(self, small_setup, day_demand):
        """``ReplanEvent.columns`` is the LP columns a round loaded: the
        whole LP at slot 0, fewer every later round, the same count for
        an infeasible round, and 0 when nothing was left to plan."""
        planner = RollingPlanner(small_setup)
        cache = planner.plan_cache
        for from_slot in range(0, 48, 8):
            assert planner.replan(day_demand, from_slot=from_slot)
        columns = [event.columns for event in planner.events]
        assert columns[0] == cache.num_variables
        assert columns == [cache.horizon_columns(slot) for slot in range(0, 48, 8)]
        assert all(later < earlier for earlier, later in zip(columns, columns[1:]))
        config = CallConfig.from_counts({"FR": 1}, AUDIO)
        impossible = {**day_demand, (44, config): 100.0 * sum(day_demand.values())}
        assert not planner.replan(impossible, from_slot=44)
        assert planner.events[-1].columns == cache.horizon_columns(44)
        assert planner.replan({}, from_slot=47)
        assert planner.events[-1].columns == 0
