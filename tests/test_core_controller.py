"""Tests for the online controllers and the prediction pipeline (§8)."""

import numpy as np
import pytest

from repro.core.controller import (
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
    TitanNextController,
)
from repro.core.lp import JointAssignmentLp
from repro.core.plan import OfflinePlan
from repro.core.titan_next import (
    migration_comparison,
    oracle_demand_for_day,
    predicted_demand_for_day,
    run_prediction_day,
)
from repro.net.latency import INTERNET, WAN
from repro.workload.configs import CallConfig
from repro.workload.media import AUDIO, VIDEO
from repro.workload.traces import Call, CallTable, TraceGenerator


@pytest.fixture(scope="module")
def plan(small_setup):
    demand = oracle_demand_for_day(small_setup, day=30)
    result = JointAssignmentLp(small_setup.scenario, demand).solve()
    assert result.is_optimal
    return result.assignment


class TestOfflinePlan:
    def test_from_assignment_quotas(self, plan):
        offline = OfflinePlan.from_assignment(plan)
        slots_with_plans = {key[0] for key in plan}
        # Busy midday slot must have a plan for common configs.
        assert any(offline.configs_for_slot(t) for t in slots_with_plans)

    def test_sample_and_consume(self, plan):
        offline = OfflinePlan.from_assignment(plan)
        rng = np.random.default_rng(1)
        slot = 20
        configs = offline.configs_for_slot(slot)
        assert configs
        config = configs[0]
        choice = offline.sample(slot, config, rng)
        assert choice is not None
        dc, option = choice
        before = offline.peek(slot, config, dc, option)
        assert offline.consume(slot, config, dc, option)
        assert offline.peek(slot, config, dc, option) == pytest.approx(before - 1.0)

    def test_consume_exhausts(self):
        config = CallConfig.from_counts({"FR": 1}, AUDIO)
        offline = OfflinePlan.from_assignment({(0, config, "westeurope", WAN): 2.0})
        assert offline.consume(0, config, "westeurope", WAN)
        assert offline.consume(0, config, "westeurope", WAN)
        assert not offline.consume(0, config, "westeurope", WAN)
        rng = np.random.default_rng(0)
        assert offline.sample(0, config, rng) is None

    def test_sample_unknown_config(self):
        offline = OfflinePlan()
        rng = np.random.default_rng(0)
        assert offline.sample(0, CallConfig.from_counts({"FR": 1}, AUDIO), rng) is None


class TestQuotaAccounting:
    """Satellite: consume/refund round-trips and exhaustion behaviour."""

    def _plan(self, quota=3.0):
        config = CallConfig.from_counts({"FR": 1}, AUDIO)
        plan = OfflinePlan.from_assignment(
            {
                (0, config, "westeurope", WAN): quota,
                (0, config, "france-central", INTERNET): quota,
            }
        )
        return plan, config

    def test_consume_refund_round_trip_restores_peek(self):
        plan, config = self._plan()
        before = plan.peek(0, config, "westeurope", WAN)
        assert plan.consume(0, config, "westeurope", WAN)
        assert plan.peek(0, config, "westeurope", WAN) == pytest.approx(before - 1.0)
        plan.refund(0, config, "westeurope", WAN)
        assert plan.peek(0, config, "westeurope", WAN) == pytest.approx(before)

    def test_consume_never_drives_bucket_below_zero(self):
        plan, config = self._plan(quota=2.0)
        assert plan.consume(0, config, "westeurope", WAN)
        assert plan.consume(0, config, "westeurope", WAN)
        # Third consume must refuse rather than go negative.
        assert not plan.consume(0, config, "westeurope", WAN)
        assert plan.peek(0, config, "westeurope", WAN) >= 0.0
        # Partial quota below the requested amount is also refused.
        assert not plan.consume(0, config, "france-central", INTERNET, amount=10.0)
        assert plan.peek(0, config, "france-central", INTERNET) == pytest.approx(2.0)

    def test_sample_none_once_all_buckets_exhausted(self):
        plan, config = self._plan(quota=1.0)
        rng = np.random.default_rng(1)
        assert plan.consume(0, config, "westeurope", WAN)
        assert plan.sample(0, config, rng) is not None  # one bucket left
        assert plan.consume(0, config, "france-central", INTERNET)
        assert plan.sample(0, config, rng) is None
        # Refunding brings the entry back into rotation.
        plan.refund(0, config, "westeurope", WAN)
        assert plan.sample(0, config, rng) == ("westeurope", WAN)


class TestControllerStatsRates:
    """Satellite: the option-migration and unplanned rate properties."""

    def test_rates(self):
        from repro.core.controller import ControllerStats

        stats = ControllerStats(calls=200, dc_migrations=30, option_migrations=50, unplanned=8)
        assert stats.dc_migration_rate == pytest.approx(0.15)
        assert stats.option_migration_rate == pytest.approx(0.25)
        assert stats.unplanned_rate == pytest.approx(0.04)

    def test_rates_zero_safe(self):
        from repro.core.controller import ControllerStats

        stats = ControllerStats()
        assert stats.dc_migration_rate == 0.0
        assert stats.option_migration_rate == 0.0
        assert stats.unplanned_rate == 0.0


def _one_row(controller, call):
    """``call`` replayed as a one-row table through ``process_table``."""
    config = call.config
    table = CallTable(
        [config],
        [0],
        [call.start_slot],
        [call.duration_slots],
        [config.countries.index(call.first_joiner_country)],
        id_offset=call.call_id,
    )
    batch = controller.process_table(table)
    assert len(batch) == 1
    return batch[0]


#: Each controller test runs through the scalar path and the batch path.
REPLAY = pytest.mark.parametrize(
    "replay",
    [lambda controller, call: controller.process(call), _one_row],
    ids=["process", "process_table"],
)


def _remaining(controller, slot, config, dc, option):
    """A bucket's remaining quota: the batch path's snapshot once it
    exists, else the plan the scalar path consumes."""
    index = controller._quota_index
    if index is None:
        return controller.plan.peek(slot, config, dc, option)
    entry = index.entry(slot, index.key(config))
    return float(entry.quota[entry.keys.index((dc, option))])


class TestTitanNextController:
    def test_processes_calls_and_counts(self, small_setup, plan):
        controller = TitanNextController(small_setup.scenario, OfflinePlan.from_assignment(plan))
        trace = TraceGenerator(small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5)
        calls = trace.calls_for_window(30 * 48 + 18, 4)
        assignments = [controller.process(call) for call in calls]
        assert controller.stats.calls == len(calls)
        assert all(a.final_dc in small_setup.scenario.dc_codes for a in assignments)

    def test_migration_rates_plausible(self, small_setup, plan):
        """Table 4: DC migrations with reduced configs sit around 11-19%."""
        controller = TitanNextController(small_setup.scenario, OfflinePlan.from_assignment(plan))
        trace = TraceGenerator(small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5)
        calls = trace.calls_for_window(30 * 48 + 16, 8)
        for call in calls:
            controller.process(call)
        assert 0.0 <= controller.stats.dc_migration_rate < 0.5

    @REPLAY
    def test_fallback_on_empty_plan(self, small_setup, replay):
        controller = TitanNextController(small_setup.scenario, OfflinePlan())
        config = CallConfig.from_counts({"FR": 2}, VIDEO)
        call = Call(0, config, 10, 1, "FR")
        assignment = replay(controller, call)
        # Surge handling: nearest DC over the WAN.
        assert assignment.initial_option == WAN
        assert controller.stats.unplanned == 1

    @REPLAY
    def test_no_migration_when_plan_matches(self, small_setup, replay):
        config = CallConfig.from_counts({"FR": 2}, VIDEO)
        reduced = config.reduced()
        plan = OfflinePlan.from_assignment(
            {
                (10, reduced, "france-central", WAN): 100.0,
            }
        )
        controller = TitanNextController(small_setup.scenario, plan)
        call = Call(0, config, 10, 1, "FR")
        assignment = replay(controller, call)
        assert not assignment.dc_migrated

    @REPLAY
    def test_fractional_bucket_not_refunded_into_existence(self, small_setup, replay):
        """A sampled-but-fractional bucket consumes nothing, so a wrong
        guess must not refund a full unit into it (that would mint plan
        quota from nothing on every mismatch)."""
        video_reduced = CallConfig.from_counts({"FR": 1}, VIDEO)
        audio_reduced = CallConfig.from_counts({"FR": 1}, AUDIO)
        plan = OfflinePlan.from_assignment(
            {
                (10, video_reduced, "ireland", WAN): 0.4,
                (10, audio_reduced, "france-central", WAN): 100.0,
            }
        )
        controller = TitanNextController(small_setup.scenario, plan)
        # Guess is video (0.4 quota: sampled, but less than one unit);
        # the true config is audio, so reconciliation follows audio's plan.
        call = Call(0, CallConfig.from_counts({"FR": 2}, AUDIO), 10, 1, "FR")
        assignment = replay(controller, call)
        assert assignment.initial_dc == "ireland"
        assert assignment.final_dc == "france-central"
        assert _remaining(controller, 10, video_reduced, "ireland", WAN) == pytest.approx(0.4)
        assert _remaining(controller, 10, audio_reduced, "france-central", WAN) == 99.0

    @REPLAY
    def test_migration_when_plan_differs(self, small_setup, replay):
        video_reduced = CallConfig.from_counts({"FR": 1}, VIDEO)
        audio_reduced = CallConfig.from_counts({"FR": 1}, AUDIO)
        plan = OfflinePlan.from_assignment(
            {
                (10, video_reduced, "ireland", WAN): 100.0,
                (10, audio_reduced, "france-central", WAN): 100.0,
            }
        )
        controller = TitanNextController(small_setup.scenario, plan)
        # First joiner from FR; recent media defaults to video -> ireland.
        call = Call(0, CallConfig.from_counts({"FR": 2}, AUDIO), 10, 1, "FR")
        assignment = replay(controller, call)
        # True config is audio -> planned at france-central: migration.
        assert assignment.initial_dc == "ireland"
        assert assignment.final_dc == "france-central"
        assert assignment.dc_migrated
        assert controller.stats.dc_migrations == 1


class TestFirstJoinerBaselines:
    def _calls(self, setup, n_slots=4):
        trace = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=7)
        return trace.calls_for_window(30 * 48 + 18, n_slots)

    def test_wrr_assigns_everything(self, small_setup):
        controller = FirstJoinerWrr(small_setup.scenario)
        calls = self._calls(small_setup)
        assignments = [controller.process(c) for c in calls]
        assert len(assignments) == len(calls)
        assert all(a.final_dc in small_setup.scenario.dc_codes for a in assignments)

    def test_lf_prefers_nearest(self, small_setup):
        controller = FirstJoinerLf(small_setup.scenario)
        config = CallConfig.from_counts({"FR": 2}, AUDIO)
        call = Call(0, config, 10, 1, "FR")
        assignment = controller.process(call)
        # France's lowest-latency bucket is one of the nearby DCs.
        near = {"france-central", "westeurope", "switzerland-north", "uk-south"}
        assert assignment.final_dc in near

    def test_titan_routing_fraction(self, small_setup):
        controller = FirstJoinerTitan(small_setup.scenario, seed=9)
        config = CallConfig.from_counts({"GB": 2}, AUDIO)
        options = [
            controller.process(Call(i, config, 10, 1, "GB")).final_option for i in range(400)
        ]
        internet_share = np.mean([o == INTERNET for o in options])
        # Fractions average ~18% at convergence.
        assert 0.02 < internet_share < 0.4

    def test_baselines_never_give_internet_to_disabled(self, small_setup):
        config = CallConfig.from_counts({"DE": 2}, AUDIO)
        for controller in (
            FirstJoinerWrr(small_setup.scenario),
            FirstJoinerLf(small_setup.scenario),
            FirstJoinerTitan(small_setup.scenario),
        ):
            for i in range(50):
                assignment = controller.process(Call(i, config, 10, 1, "DE"))
                assert assignment.final_option == WAN


@pytest.mark.slow
class TestPredictionPipeline:
    def test_predicted_demand_shape(self, small_setup):
        predicted = predicted_demand_for_day(small_setup, day=30)
        slots = {t for t, _ in predicted}
        assert slots <= set(range(48))
        assert all(v >= 0 for v in predicted.values())
        # Reduced configs only.
        assert all(c.reduced() == c for _, c in predicted)

    def test_insufficient_history_rejected(self, small_setup):
        with pytest.raises(ValueError):
            predicted_demand_for_day(small_setup, day=3)

    def test_prediction_total_close_to_actual(self, small_setup):
        predicted = predicted_demand_for_day(small_setup, day=30)
        actual = oracle_demand_for_day(small_setup, day=30)
        predicted_total = sum(predicted.values())
        actual_total = sum(actual.values())
        assert predicted_total == pytest.approx(actual_total, rel=0.2)

    def test_run_prediction_day_tn_beats_wrr(self, small_setup):
        """Fig 15: TN reduces the sum of peaks vs first-joiner WRR."""
        from repro.analysis.metrics import evaluate_assignment

        results = run_prediction_day(small_setup, day=30, policies=("wrr", "titan-next"))
        peaks = {
            name: evaluate_assignment(
                small_setup.scenario, r.realized_table(), name
            ).sum_of_peaks_gbps
            for name, r in results.items()
        }
        assert peaks["titan-next"] < peaks["wrr"]

    def test_migration_comparison_reduced_helps(self, small_setup):
        """Table 4: reduced call configs cut migrations."""
        rates = migration_comparison(small_setup, day=30)
        assert rates["reduced"]["dc_migration_rate"] <= rates["raw"]["dc_migration_rate"]
        assert rates["raw"]["dc_migration_rate"] > 0
        for arm in ("reduced", "raw"):
            assert 0.0 <= rates[arm]["option_migration_rate"] <= 1.0
            assert 0.0 <= rates[arm]["unplanned_rate"] <= 1.0
