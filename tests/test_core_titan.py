"""Tests for Titan: capacity book, ECS, ramp state machine."""

import numpy as np
import pytest

from repro.core.capacity import InternetCapacityBook, PairCapacity, split_capacity_by_priority
from repro.core.ecs import ArmMetrics, Experiment, QualityGates, Scorecard
from repro.core.titan import (
    DISABLED,
    HOLDING,
    SyntheticPathProber,
    Titan,
    TitanParams,
)
from repro.geo.world import default_world
from repro.net.latency import LatencyModel
from repro.net.loss import LossModel


@pytest.fixture(scope="module")
def world():
    return default_world()


@pytest.fixture(scope="module")
def prober(world):
    return SyntheticPathProber(LatencyModel(world), LossModel(world))


class TestCapacityBook:
    def test_fraction_roundtrip(self):
        book = InternetCapacityBook()
        book.set_fraction("FR", "westeurope", 0.15)
        assert book.fraction("FR", "westeurope") == 0.15

    def test_unknown_pair_defaults_to_zero(self):
        book = InternetCapacityBook()
        assert book.fraction("FR", "westeurope") == 0.0
        assert book.gbps("FR", "westeurope") == 0.0

    def test_reads_leave_the_book_unchanged(self):
        book = InternetCapacityBook()
        book.set_gbps("DE", "westeurope", 5.0)
        before = book.snapshot()
        assert book.gbps("FR", "westeurope") == 0.0
        assert book.fraction("FR", "westeurope") == 0.0
        assert book.gbps("DE", "westeurope") == 5.0
        assert book.fraction("DE", "westeurope") == 0.0
        assert book.snapshot() == before

    def test_disable_zeroes_effective_values(self):
        book = InternetCapacityBook()
        book.set_fraction("DE", "westeurope", 0.2)
        book.set_gbps("DE", "westeurope", 5.0)
        book.disable("DE", "westeurope")
        assert book.fraction("DE", "westeurope") == 0.0
        assert book.gbps("DE", "westeurope") == 0.0
        book.enable("DE", "westeurope")
        assert book.fraction("DE", "westeurope") == 0.2

    def test_invalid_values(self):
        book = InternetCapacityBook()
        with pytest.raises(ValueError):
            book.set_fraction("FR", "westeurope", 1.5)
        with pytest.raises(ValueError):
            book.set_gbps("FR", "westeurope", -1.0)
        with pytest.raises(ValueError):
            PairCapacity("FR", "westeurope", fraction=-0.1)

    def test_priority_split(self):
        shares = split_capacity_by_priority(100.0, {"GB": 3.0, "FR": 1.0})
        assert shares["GB"] == pytest.approx(75.0)
        assert shares["FR"] == pytest.approx(25.0)

    def test_priority_split_edge_cases(self):
        assert split_capacity_by_priority(100.0, {}) == {}
        shares = split_capacity_by_priority(100.0, {"GB": 0.0})
        assert shares["GB"] == 0.0
        with pytest.raises(ValueError):
            split_capacity_by_priority(-1.0, {"GB": 1.0})


class TestExperiment:
    def test_bucketing_is_stable(self):
        exp = Experiment("test", 0.3)
        arms = [exp.bucket_of(f"user-{i}") for i in range(100)]
        assert arms == [exp.bucket_of(f"user-{i}") for i in range(100)]

    def test_bucketing_fraction_respected(self):
        exp = Experiment("test", 0.3)
        share = np.mean([exp.in_treatment(f"user-{i}") for i in range(3000)])
        assert share == pytest.approx(0.3, abs=0.03)

    def test_raising_fraction_is_monotone(self):
        """A treatment user stays in treatment as the ramp grows."""
        low = Experiment("ramp", 0.05)
        high = Experiment("ramp", 0.20)
        for i in range(1000):
            user = f"user-{i}"
            if low.in_treatment(user):
                assert high.in_treatment(user)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            Experiment("x", 1.5)

    def test_observe_routes_to_correct_arm(self):
        exp = Experiment("test", 0.5)
        for i in range(200):
            exp.observe(f"user-{i}", 20.0, 0.01)
        assert exp.treatment.count + exp.control.count == 200
        assert exp.treatment.count > 0
        assert exp.control.count > 0

    def test_reset_metrics(self):
        exp = Experiment("test", 0.5)
        exp.observe("u", 20.0, 0.0)
        exp.reset_metrics()
        assert exp.treatment.count == 0
        assert exp.control.count == 0


class TestScorecard:
    def _card(self, losses, latencies=None, baseline=None):
        treatment = ArmMetrics()
        for i, loss in enumerate(losses):
            latency = latencies[i] if latencies else 20.0
            treatment.observe(latency, loss)
        return Scorecard(treatment, ArmMetrics(), QualityGates(), baseline)

    def test_healthy(self):
        card = self._card([0.01] * 20)
        assert card.healthy

    def test_severe_on_p50_loss(self):
        """Emergency brake: P50 loss >= 1% (§4.1(4b))."""
        card = self._card([2.0] * 20)
        assert card.severe_regression

    def test_moderate_on_p50_loss(self):
        card = self._card([0.2] * 20)
        assert card.moderate_regression
        assert not card.severe_regression

    def test_moderate_on_lossy_users(self):
        # 10% of users above 1% loss -> moderate.
        losses = [0.01] * 18 + [5.0, 5.0]
        card = self._card(losses)
        assert card.moderate_regression

    def test_latency_gate_uses_baseline_not_control(self):
        # 30 ms vs baseline 20 ms: +50% -> regressed.
        card = self._card([0.0] * 20, latencies=[30.0] * 20, baseline=20.0)
        assert card.latency_regressed
        # Without a baseline the latency gate never fires.
        card = self._card([0.0] * 20, latencies=[30.0] * 20, baseline=None)
        assert not card.latency_regressed

    def test_latency_slack_absorbs_small_absolute_changes(self):
        # 20 -> 26 ms is +30% but only +6 ms: below the 8 ms slack.
        card = self._card([0.0] * 20, latencies=[26.0] * 20, baseline=20.0)
        assert not card.latency_regressed

    def test_metrics_validation(self):
        arm = ArmMetrics()
        with pytest.raises(ValueError):
            arm.observe(-1.0, 0.0)


class TestTitanRamp:
    def test_requires_pairs(self, world, prober):
        with pytest.raises(ValueError):
            Titan(world, prober, [])

    def test_unknown_pair_rejected(self, world, prober):
        with pytest.raises(KeyError):
            Titan(world, prober, [("ZZ", "westeurope")])

    def test_fraction_never_exceeds_cap(self, world, prober):
        titan = Titan(world, prober, [("GB", "westeurope"), ("FR", "ireland")])
        titan.run(25)
        for ramp in titan.ramps.values():
            assert ramp.fraction <= TitanParams().fraction_cap + 1e-9

    def test_good_pairs_ramp_up(self, world, prober):
        pairs = [(c, "westeurope") for c in ("GB", "FR", "NL", "IE", "BE")]
        titan = Titan(world, prober, pairs)
        titan.run(25)
        fractions = [titan.fraction(c, "westeurope") for c, _ in pairs]
        assert max(fractions) > 0.10

    def test_germany_ends_disabled_or_zero(self, world, prober):
        """§4.2(5): Germany's Internet loss is unacceptable."""
        titan = Titan(
            world, prober, [("DE", "westeurope"), ("DE", "ireland"), ("DE", "france-central")]
        )
        titan.run(25)
        states = [titan.state("DE", dc) for dc in ("westeurope", "ireland", "france-central")]
        fractions = [titan.fraction("DE", dc) for dc in ("westeurope", "ireland", "france-central")]
        assert states.count(DISABLED) >= 2
        assert max(fractions) < 0.1

    def test_capacity_book_published(self, world, prober):
        titan = Titan(world, prober, [("GB", "westeurope")], pair_traffic_gbps=lambda c, d: 10.0)
        book = titan.run(20)
        fraction = titan.fraction("GB", "westeurope")
        assert book.fraction("GB", "westeurope") == pytest.approx(fraction)
        assert book.gbps("GB", "westeurope") == pytest.approx(fraction * 10.0)

    def test_holding_at_cap(self, world, prober):
        """Safety over optimality: stop at the cap even when healthy."""
        params = TitanParams(step_min=0.05, step_max=0.05, healthy_evals_per_step=1)
        titan = Titan(world, prober, [("NL", "westeurope")], params=params)
        titan.run(25)
        ramp = titan.ramps[("NL", "westeurope")]
        if ramp.state == HOLDING:
            assert ramp.fraction == pytest.approx(params.fraction_cap)

    def test_deterministic(self, world, prober):
        t1 = Titan(world, prober, [("GB", "westeurope")], seed=5)
        t2 = Titan(world, prober, [("GB", "westeurope")], seed=5)
        t1.run(10)
        t2.run(10)
        assert t1.fraction("GB", "westeurope") == t2.fraction("GB", "westeurope")
        assert t1.state("GB", "westeurope") == t2.state("GB", "westeurope")

    def test_negative_evaluations_rejected(self, world, prober):
        titan = Titan(world, prober, [("GB", "westeurope")])
        with pytest.raises(ValueError):
            titan.run(-1)

    def test_history_recorded(self, world, prober):
        titan = Titan(world, prober, [("GB", "westeurope")])
        titan.run(5)
        assert len(titan.ramps[("GB", "westeurope")].history) == 5


class TestEmptyTreatmentBaseline:
    """Regression: an empty treatment arm must never touch the latency
    baseline (p50 of an empty arm is 0.0, which would poison the EWMA)."""

    def test_empty_window_does_not_seed_baseline(self, world, prober):
        params = TitanParams(users_per_eval=0)  # every window is empty
        titan = Titan(world, prober, [("GB", "westeurope")], params=params)
        titan.evaluate_all()
        ramp = titan.ramps[("GB", "westeurope")]
        assert ramp.baseline_latency_ms is None

    def test_empty_window_does_not_drag_baseline_down(self, world, prober):
        params = TitanParams(users_per_eval=0)
        titan = Titan(world, prober, [("GB", "westeurope")], params=params)
        ramp = titan.ramps[("GB", "westeurope")]
        ramp.baseline_latency_ms = 30.0
        titan.evaluate_all()
        assert ramp.baseline_latency_ms == pytest.approx(30.0)

    def test_populated_window_seeds_positive_baseline(self, world, prober):
        titan = Titan(world, prober, [("GB", "westeurope")])
        titan.evaluate_all()
        ramp = titan.ramps[("GB", "westeurope")]
        assert ramp.baseline_latency_ms is not None
        assert ramp.baseline_latency_ms > 0.0

    def test_scorecard_empty_treatment_arm_is_inert(self):
        """An all-control scorecard reports no regressions at all."""
        card = Scorecard(ArmMetrics(), ArmMetrics(), QualityGates(), latency_baseline_ms=25.0)
        assert card.treatment.count == 0
        assert card.treatment.p50_latency() == 0.0
        assert not card.latency_regressed
        assert not card.moderate_regression
        assert not card.severe_regression
        assert card.healthy
