"""Stress & failure campaigns: events, multipliers, replanning, overflow.

Pins the contracts the stress layer is built on: demand multipliers
scale Poisson rates without disturbing unstressed draws, capacity
factors reach the cached LP's RHS for one solve but never the shared
capacity book, the timelines of a campaign share the setup's one
planning LP yet plan exactly as they would alone, a campaign day's
rounds carry arrays only (estimate matrix in, column values out, one
plan built for the replay), infeasible replan rounds degrade
gracefully, and the quota-overflow metric accounts for the §6.4 surge
load.  The splice itself (only the future is rewritten) is pinned in
``test_core_replanner.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.lp import JointLpResult
from repro.core.plan import OfflinePlan
from repro.core.stress import (
    DcOutageEvent,
    DemandShockEvent,
    FiberCutEvent,
    FlashCrowdEvent,
    HolidayEvent,
    StressTimeline,
    campaign_scenarios,
    quota_overflow,
    run_campaign_day,
)
from repro.core.sweep import SweepRunner
from repro.core.titan_next import PlanCache, _digest
from tests.test_sweep_parallel import assert_same_day_result, titan_next_days

DAY = 2
BATCH_FIELDS = ("initial_dc_idx", "initial_option_idx", "final_dc_idx", "final_option_idx")
SLOTS = 48


@pytest.fixture(scope="module")
def raw_configs(small_setup):
    return [item.config for item in small_setup.universe.top(small_setup.top_n_configs)]


@pytest.fixture(scope="module")
def scenarios(small_setup):
    return campaign_scenarios(small_setup)


@pytest.fixture(scope="module")
def baseline_run(small_setup):
    return run_campaign_day(small_setup, StressTimeline(()), day=DAY)


class TestEvents:
    def test_windows_validated(self):
        with pytest.raises(ValueError):
            FlashCrowdEvent("DE", 10, 10)
        with pytest.raises(ValueError):
            HolidayEvent(0, 48, multiplier=-0.1)
        with pytest.raises(ValueError):
            FiberCutEvent("a", "b", 0, 5, internet_factor_during=1.5)

    def test_flash_crowd_scopes_to_country(self, raw_configs):
        event = FlashCrowdEvent("DE", 0, 8, multiplier=4.0)
        for config in raw_configs:
            expected = 4.0 if "DE" in config.countries else 1.0
            assert event.demand_factor(config) == expected

    def test_global_events_hit_every_config(self, raw_configs):
        for event in (HolidayEvent(0, 48, multiplier=0.5), DemandShockEvent(0, 48, multiplier=2.0)):
            assert all(event.demand_factor(c) != 1.0 for c in raw_configs)

    def test_dc_outage_zeroes_both_capacity_families(self, small_setup):
        scenario = small_setup.scenario
        dc = scenario.dc_codes[-1]
        event = DcOutageEvent(dc, 0, 8)
        assert event.compute_factor(dc) == 0.0
        assert event.internet_factor("DE", dc, scenario) == 0.0
        other = scenario.dc_codes[0]
        assert event.compute_factor(other) == 1.0
        assert event.internet_factor("DE", other, scenario) == 1.0

    def test_fiber_cut_hits_pairs_crossing_the_link(self, small_setup, scenarios):
        scenario = small_setup.scenario
        cut = scenarios["fiber-cut"].events[0]
        affected = [
            (country, dc)
            for country in scenario.country_codes
            for dc in scenario.dc_codes
            if cut.internet_factor(country, dc, scenario) == 0.0
        ]
        assert ("GB", scenario.dc_codes[0]) in affected
        assert len(affected) < len(scenario.country_codes) * len(scenario.dc_codes)


class TestDemandMultipliers:
    def test_neutral_timeline_is_identity(self, small_setup, raw_configs):
        multipliers = StressTimeline(()).demand_multipliers(raw_configs, SLOTS)
        assert (multipliers == 1.0).all()
        base = small_setup.demand.counts_matrix(DAY * SLOTS, SLOTS, top_n=small_setup.top_n_configs)
        with_ones = small_setup.demand.counts_matrix(
            DAY * SLOTS, SLOTS, top_n=small_setup.top_n_configs, multipliers=multipliers
        )
        assert np.array_equal(base, with_ones)

    def test_unstressed_entries_stay_bit_identical(self, small_setup, raw_configs):
        timeline = StressTimeline((FlashCrowdEvent("DE", 20, 28, multiplier=3.0),))
        multipliers = timeline.demand_multipliers(raw_configs, SLOTS)
        base = small_setup.demand.counts_matrix(DAY * SLOTS, SLOTS, top_n=small_setup.top_n_configs)
        stressed = small_setup.demand.counts_matrix(
            DAY * SLOTS, SLOTS, top_n=small_setup.top_n_configs, multipliers=multipliers
        )
        untouched = multipliers == 1.0
        assert np.array_equal(base[untouched], stressed[untouched])
        assert stressed[~untouched].sum() > base[~untouched].sum()

    def test_overlapping_events_multiply(self, raw_configs):
        timeline = StressTimeline(
            (DemandShockEvent(0, 48, multiplier=2.0), HolidayEvent(10, 20, multiplier=0.5))
        )
        multipliers = timeline.demand_multipliers(raw_configs, SLOTS)
        assert multipliers[0, 5] == 2.0
        assert multipliers[0, 15] == 1.0  # 2.0 × 0.5

    def test_visibility_gates_future_events(self, raw_configs):
        timeline = StressTimeline((FlashCrowdEvent("DE", 20, 28, multiplier=3.0),))
        before = timeline.demand_multipliers(raw_configs, SLOTS, visible_from=16)
        assert (before == 1.0).all()
        after = timeline.demand_multipliers(raw_configs, SLOTS, visible_from=20)
        assert after.max() == 3.0


class TestCapacityPlumbing:
    def test_factor_fns_respect_event_windows(self, small_setup):
        scenario = small_setup.scenario
        dc = scenario.dc_codes[-1]
        timeline = StressTimeline((DcOutageEvent(dc, 18, 30),))
        internet_fn, compute_fn = timeline.capacity_factor_fns(scenario)
        assert compute_fn(20, dc) == 0.0
        assert compute_fn(17, dc) == 1.0  # before the outage
        assert compute_fn(30, dc) == 1.0  # scheduled end is known
        assert internet_fn(20, "DE", dc) == 0.0
        assert internet_fn(20, "DE", scenario.dc_codes[0]) == 1.0

    def test_factor_fns_skip_families_no_visible_event_scales(self, small_setup, scenarios):
        scenario = small_setup.scenario
        for name in ("flash-crowd", "flash-crowd-surge", "holiday", "demand-shock"):
            assert scenarios[name].capacity_factor_fns(scenario) == (None, None)
        cut = scenarios["fiber-cut"]
        internet_fn, compute_fn = cut.capacity_factor_fns(scenario)
        assert internet_fn is not None and compute_fn is None
        assert cut.capacity_factor_fns(scenario, visible_from=8) == (None, None)

    def test_skipped_family_restores_the_baseline_bit_for_bit(self, small_setup):
        """``None`` installs exactly what all-1.0 factors would."""
        cache = PlanCache(small_setup)
        cache.refresh_capacity_rhs(
            internet_factor=lambda slot, country, dc: 1.0, compute_factor=lambda slot, dc: 1.0
        )
        ones = (cache._artifacts.c2_block.rhs.tobytes(), cache._artifacts.c3_block.rhs.tobytes())
        cache.refresh_capacity_rhs(
            internet_factor=lambda slot, country, dc: 0.5, compute_factor=lambda slot, dc: 0.5
        )
        cache.refresh_capacity_rhs()
        assert (
            cache._artifacts.c2_block.rhs.tobytes(),
            cache._artifacts.c3_block.rhs.tobytes(),
        ) == ones

    @pytest.mark.parametrize("round_slot", [24, 40])
    def test_horizon_refresh_loads_the_bounds_of_a_full_refresh(
        self, small_setup, scenarios, round_slot
    ):
        """A fiber-cut round scales only its horizon's capacity rows.
        The earlier rows keep their baseline, but the round loads them
        free either way, so the loaded bounds and the memo key match
        the full refresh bit for bit: at slot 24 mid-cut, and at slot
        40 after the cut ended (when the horizon refresh scales
        nothing)."""
        cache = PlanCache(small_setup)
        artifacts = cache._artifacts
        internet_fn, compute_fn = scenarios["fiber-cut"].capacity_factor_fns(
            small_setup.scenario, visible_from=round_slot
        )
        _, free = cache._horizon(round_slot)
        loaded, keys, c3 = {}, {}, {}
        for from_slot in (0, round_slot):
            cache.refresh_capacity_rhs(internet_fn, compute_fn, from_slot=from_slot)
            bounds = cache._prepared.row_bounds(free)
            loaded[from_slot] = [bound.tobytes() for bound in bounds]
            keys[from_slot] = _digest(np.asarray([round_slot]), *bounds)
            c3[from_slot] = artifacts.c3_block.rhs.copy()
        assert loaded[0] == loaded[round_slot]
        assert keys[0] == keys[round_slot]
        earlier = artifacts.c3_slot < round_slot
        assert not np.array_equal(c3[0][earlier], cache._base_c3_rhs[earlier])
        assert np.array_equal(c3[round_slot][earlier], cache._base_c3_rhs[earlier])
        assert np.array_equal(c3[0][~earlier], c3[round_slot][~earlier])

    def test_campaign_day_leaves_the_capacity_book_alone(self, small_setup, scenarios):
        """Capacity events reach only the planner's LP: the shared book
        keeps its values and the very pair objects callers hold."""
        book = small_setup.scenario.capacity_book
        before = book.snapshot()
        held = {key: book.pair(*key) for key in before}
        for name in ("fiber-cut", "dc-outage"):
            run_campaign_day(small_setup, scenarios[name], day=DAY, evaluate=False)
        assert book.snapshot() == before
        assert all(book.pair(*key) is pair for key, pair in held.items())

    def test_event_schedule_resolves_cuts(self, small_setup, scenarios):
        scenario = small_setup.scenario
        schedule = scenarios["fiber-cut"].event_schedule(scenario)
        assert len(schedule.fiber_cuts) == 1
        cut = scenarios["fiber-cut"].events[0]
        matrix = schedule.capacity_matrix(scenario.wan_links, 0, SLOTS)
        row = [i for i, link in enumerate(scenario.wan_links) if link.key == cut.link_key]
        assert (matrix[row[0], cut.start_slot : cut.end_slot] == 0.0).all()
        assert matrix[row[0], cut.start_slot - 1] == 1.0


class TestSharedPlanCache:
    """The campaign's timelines share the setup's one planning LP."""

    def test_timelines_share_one_build_and_match_solo_runs(
        self, small_setup, scenarios, monkeypatch
    ):
        builds = []
        init = PlanCache.__init__

        def counting(cache, setup):
            builds.append(setup)
            init(cache, setup)

        monkeypatch.setattr(PlanCache, "__init__", counting)
        shared = replace(small_setup)
        together = {
            name: run_campaign_day(shared, timeline, day=DAY, evaluate=False)
            for name, timeline in scenarios.items()
        }
        assert len(builds) == 1 and builds[0] is shared
        for name, timeline in scenarios.items():
            alone = run_campaign_day(replace(small_setup), timeline, day=DAY, evaluate=False)
            result = together[name]
            assert result.replan_events == alone.replan_events
            assert result.stats == alone.stats
            assert result.overflow_calls == alone.overflow_calls
            for field in BATCH_FIELDS:
                assert np.array_equal(getattr(result.batch, field), getattr(alone.batch, field))
        assert len(builds) == 1 + len(scenarios)

    def test_capacity_events_do_not_leak_into_later_plans(self, small_setup, scenarios):
        """Each solve installs its own capacities: a window planned after
        the fiber-cut and outage days equals one on a fresh copy."""
        setup = replace(small_setup)
        for name in ("fiber-cut", "dc-outage"):
            run_campaign_day(setup, scenarios[name], day=DAY, evaluate=False)
        after = titan_next_days(SweepRunner(setup), [30])
        fresh = titan_next_days(SweepRunner(replace(small_setup)), [30])
        assert_same_day_result(after[30], fresh[30])


class TestArrayRounds:
    def test_rounds_build_no_tables_and_one_plan_per_day(
        self, small_setup, scenarios, monkeypatch
    ):
        """A campaign day's rounds pass the estimate matrix in and take
        the column values out: no demand table is folded, no round's
        assignment table is read, and one plan is built for the replay
        and the overflow count."""
        seen = []
        monkeypatch.setattr(
            PlanCache, "demand_counts", lambda *args, **kwargs: seen.append("table")
        )
        eager = JointLpResult.assignment
        monkeypatch.setattr(
            JointLpResult,
            "assignment",
            property(lambda result: seen.append("assignment") or eager.fget(result)),
        )
        init = OfflinePlan.__init__

        def counting(plan):
            seen.append("plan")
            init(plan)

        monkeypatch.setattr(OfflinePlan, "__init__", counting)
        result = run_campaign_day(
            replace(small_setup), scenarios["fiber-cut"], day=DAY, evaluate=False
        )
        assert seen == ["plan"]
        assert len(result.replan_events) == SLOTS // 8


class TestQuotaOverflow:
    class _Table:
        def __init__(self, start_slot, configs, config_idx):
            self.start_slot = np.asarray(start_slot)
            self.configs = configs
            self.config_idx = np.asarray(config_idx)

        def __len__(self):
            return len(self.config_idx)

    def test_counts_overdraft_per_slot_and_config(self):
        plan = OfflinePlan.from_assignment(
            {(0, "a", "dc", "wan"): 2.0, (1, "a", "dc", "wan"): 10.0}
        )
        # Slot 0: three "a" calls against quota 2 -> overflow 1.
        # Slot 1: one call against quota 10 -> no overflow.
        # Slot 2: one "b" call with no entry at all -> overflow 1.
        table = self._Table([0, 0, 0, 1, 2], ["a", "b"], [0, 0, 0, 0, 1])
        assert quota_overflow(plan, table, slots_per_day=48, reduce_configs=False) == 2.0

    def test_no_overflow_when_plan_covers_demand(self):
        plan = OfflinePlan.from_assignment({(0, "a", "dc", "wan"): 5.0})
        table = self._Table([0, 0], ["a"], [0, 0])
        assert quota_overflow(plan, table, slots_per_day=48, reduce_configs=False) == 0.0


class TestCampaignDay:
    def test_baseline_day_is_clean(self, baseline_run):
        assert baseline_run.infeasible_rounds == 0
        assert baseline_run.replanned_rounds == len(baseline_run.replan_events)
        assert baseline_run.stats.calls > 0
        assert baseline_run.evaluation is not None
        # Poisson noise around λ-sized quotas leaves a small overdraft
        # even on an unstressed day; it must stay small.
        assert baseline_run.overflow_rate < 0.1

    def test_fiber_cut_day_replans_and_completes(self, small_setup, scenarios, baseline_run):
        result = run_campaign_day(small_setup, scenarios["fiber-cut"], day=DAY)
        assert result.infeasible_rounds == 0
        assert result.stats.calls == baseline_run.stats.calls  # demand untouched
        # Shifting Internet load back to the WAN costs peak bandwidth.
        assert result.evaluation.sum_of_peaks_gbps > baseline_run.evaluation.sum_of_peaks_gbps
        assert result.evaluation.internet_share < baseline_run.evaluation.internet_share

    def test_infeasible_round_degrades_gracefully(self, small_setup, scenarios, baseline_run):
        """The acceptance scenario: a 12× flash crowd lands mid-day, the
        replan round goes infeasible, the stale plan is kept, the surge
        overflow is accounted, and scoring still completes."""
        result = run_campaign_day(small_setup, scenarios["flash-crowd-surge"], day=DAY)
        assert result.infeasible_rounds >= 1
        assert result.stats.calls > baseline_run.stats.calls
        assert result.overflow_calls > 5 * baseline_run.overflow_calls
        assert result.overflow_rate > 0.2
        assert result.evaluation is not None
        assert any(not event.solved for event in result.replan_events)

    def test_cadence_validated(self, small_setup):
        with pytest.raises(ValueError, match="cadence"):
            run_campaign_day(small_setup, StressTimeline(()), day=DAY, cadence=0)

    def test_campaign_family_is_complete(self, scenarios):
        assert set(scenarios) == {
            "fiber-cut",
            "dc-outage",
            "flash-crowd",
            "flash-crowd-surge",
            "holiday",
            "demand-shock",
        }

    def test_ground_truth_ignores_visibility(self, small_setup, raw_configs):
        # The world applies events the planner has not seen yet.
        timeline = StressTimeline((FlashCrowdEvent("DE", 40, 48, multiplier=5.0),))
        truth = timeline.demand_multipliers(raw_configs, SLOTS, visible_from=None)
        assert truth.max() == 5.0
