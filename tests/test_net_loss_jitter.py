"""Tests for the loss, jitter, and elasticity models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.world import default_world
from repro.net.elasticity import ElasticityModel, ElasticityParams
from repro.net.jitter import JitterModel
from repro.net.latency import INTERNET, WAN
from repro.net.loss import SLOTS_PER_WEEK, LossModel


@pytest.fixture(scope="module")
def world():
    return default_world()


@pytest.fixture(scope="module")
def loss(world):
    return LossModel(world)


@pytest.fixture(scope="module")
def jitter(world):
    return JitterModel(world)


@pytest.fixture(scope="module")
def elasticity(world):
    return ElasticityModel(world)


class TestLossModel:
    def test_deterministic(self, world):
        m1 = LossModel(world, seed=1)
        m2 = LossModel(world, seed=1)
        assert m1.slot_loss_pct("FR", "westeurope", INTERNET, 7) == m2.slot_loss_pct(
            "FR", "westeurope", INTERNET, 7
        )

    def test_loss_in_valid_range(self, loss):
        for slot in range(100):
            val = loss.slot_loss_pct("DE", "ireland", INTERNET, slot)
            assert 0.0 <= val <= 100.0

    def test_unknown_option_rejected(self, loss):
        with pytest.raises(ValueError):
            loss.slot_loss_pct("FR", "westeurope", "smoke-signal", 0)

    def test_internet_tail_heavier_than_wan(self, loss, world):
        """Fig 6: ~10% of Internet hours ≥0.1% loss; WAN almost never."""
        eu = [c.code for c in world.europe_countries]
        dcs = ["westeurope", "ireland", "france-central"]
        internet = np.array(
            [
                loss.hourly_loss_pct(c, d, INTERNET, h)
                for c in eu
                for d in dcs
                for h in range(0, 168, 6)
            ]
        )
        wan = np.array(
            [loss.hourly_loss_pct(c, d, WAN, h) for c in eu for d in dcs for h in range(0, 168, 6)]
        )
        assert np.mean(internet >= 0.1) > 5 * max(np.mean(wan >= 0.1), 1e-4)

    def test_wan_spikes_capped(self, loss):
        vals = [loss.slot_loss_pct("FR", "westeurope", WAN, s) for s in range(SLOTS_PER_WEEK)]
        assert max(vals) < 0.5

    def test_internet_has_spikes_above_wan_peak(self, loss):
        vals = [loss.slot_loss_pct("DE", "westeurope", INTERNET, s) for s in range(SLOTS_PER_WEEK)]
        assert max(vals) > 0.1

    def test_germany_loses_more_than_france(self, loss):
        """§4.2(5): Germany's Internet loss is structurally worse."""
        de = np.mean([loss.slot_loss_pct("DE", "westeurope", INTERNET, s) for s in range(500)])
        fr = np.mean([loss.slot_loss_pct("FR", "westeurope", INTERNET, s) for s in range(500)])
        assert de > fr

    def test_spike_probability_monotone_in_quality(self, loss):
        assert loss.spike_probability("DE", INTERNET) > loss.spike_probability("FR", INTERNET)
        assert loss.spike_probability("FR", WAN) == loss.spike_probability("DE", WAN)

    def test_sustained_spike_fraction_bounds(self, loss):
        frac = loss.sustained_spike_fraction("FR", "westeurope", INTERNET, 0.1)
        assert 0.0 <= frac <= 1.0

    def test_sustained_spikes_internet_exceed_wan(self, loss, world):
        """Fig 16: Internet has more frequent sustained loss than WAN."""
        eu = [c.code for c in world.europe_countries]
        internet = np.median(
            [loss.sustained_spike_fraction(c, "westeurope", INTERNET, 0.1) for c in eu]
        )
        wan = np.max([loss.sustained_spike_fraction(c, "westeurope", WAN, 0.1) for c in eu])
        assert internet > 0.005
        assert wan <= 0.02

    def test_higher_threshold_fewer_slots(self, loss):
        low = loss.sustained_spike_fraction("DE", "westeurope", INTERNET, 0.1)
        high = loss.sustained_spike_fraction("DE", "westeurope", INTERNET, 1.0)
        assert high <= low


class TestJitterModel:
    def test_means_match_paper(self, jitter):
        """§4.2(3): WAN 3.4 ms, Internet 3.52 ms mean jitter."""
        assert jitter.mean_jitter_ms("US", WAN) == pytest.approx(3.4)
        assert jitter.mean_jitter_ms("US", INTERNET) == pytest.approx(3.52, rel=0.2)

    def test_internet_jitter_slightly_worse(self, jitter):
        assert jitter.mean_jitter_ms("US", INTERNET) > jitter.mean_jitter_ms("US", WAN)

    def test_sample_mean_converges(self, jitter):
        vals = [jitter.slot_jitter_ms("US", "us-central", WAN, s) for s in range(2000)]
        assert np.mean(vals) == pytest.approx(3.4, rel=0.1)

    def test_deterministic(self, jitter, world):
        other = JitterModel(world)
        assert jitter.slot_jitter_ms("FR", "westeurope", INTERNET, 5) == other.slot_jitter_ms(
            "FR", "westeurope", INTERNET, 5
        )

    def test_unknown_option_rejected(self, jitter):
        with pytest.raises(ValueError):
            jitter.slot_jitter_ms("FR", "westeurope", "teleport", 0)


class TestElasticityModel:
    def test_flat_below_knee(self, elasticity):
        """Fig 8: no systematic inflation up to 20% for good pairs."""
        inflation = elasticity.loss_inflation_pct("GB", "westeurope", 0.20)
        assert inflation == pytest.approx(0.0, abs=0.05)
        assert elasticity.rtt_inflation_ms("GB", "westeurope", 0.20) == pytest.approx(0.0, abs=2.0)

    def test_inflation_beyond_knee(self, elasticity):
        knee = elasticity.knee_fraction("GB", "westeurope")
        beyond = min(1.0, knee + 0.3)
        assert elasticity.loss_inflation_pct("GB", "westeurope", beyond) > 0.5
        assert elasticity.rtt_inflation_ms("GB", "westeurope", beyond) > 10

    def test_monotone_in_fraction(self, elasticity):
        vals = [elasticity.loss_inflation_pct("GB", "westeurope", f) for f in np.linspace(0, 1, 21)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_poor_quality_congests_earlier(self, elasticity):
        poor = elasticity.knee_fraction("DE", "westeurope")
        assert poor < elasticity.knee_fraction("GB", "westeurope")

    def test_fraction_out_of_range_rejected(self, elasticity):
        with pytest.raises(ValueError):
            elasticity.loss_inflation_pct("GB", "westeurope", 1.5)
        with pytest.raises(ValueError):
            elasticity.rtt_inflation_ms("GB", "westeurope", -0.1)

    def test_knee_has_floor(self, world):
        params = ElasticityParams(knee_mean=0.0, knee_sigma=0.0)
        model = ElasticityModel(world, params=params)
        assert model.knee_fraction("DE", "westeurope") >= params.knee_min

    def test_measured_drift_small(self, elasticity, world):
        """Fig 17: P90 latency drift < 20 ms, loss drift < 0.01%."""
        rtts, losses = [], []
        for c in world.europe_countries:
            rtt, loss = elasticity.measured_drift(c.code, "westeurope")
            rtts.append(rtt)
            losses.append(loss)
        assert np.percentile(np.abs(rtts), 90) < 20
        assert np.percentile(np.abs(losses), 90) < 0.1


@settings(max_examples=25, deadline=None)
@given(
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    slot=st.integers(min_value=0, max_value=100_000),
)
def test_elasticity_and_loss_always_finite(fraction, slot):
    world = default_world()
    elasticity = ElasticityModel(world)
    loss = LossModel(world)
    assert np.isfinite(elasticity.loss_inflation_pct("FR", "westeurope", fraction))
    assert np.isfinite(loss.slot_loss_pct("FR", "westeurope", INTERNET, slot))
