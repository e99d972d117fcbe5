"""Additional workload tests: media resources and demand arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.world import default_world
from repro.workload.demand import (
    SLOTS_PER_DAY,
    ConfigUniverse,
    DemandModel,
    diurnal_factor,
)
from repro.workload.media import (
    AUDIO,
    SCREENSHARE,
    VIDEO,
    participant_bandwidth_gbps,
    participant_compute_cores,
)


class TestMediaResources:
    def test_bandwidth_linear_in_participants(self):
        one = participant_bandwidth_gbps(VIDEO, 1)
        five = participant_bandwidth_gbps(VIDEO, 5)
        assert five == pytest.approx(5 * one)

    def test_zero_participants_zero_resources(self):
        assert participant_bandwidth_gbps(AUDIO, 0) == 0.0
        assert participant_compute_cores(AUDIO, 0) == 0.0

    def test_negative_participants_rejected(self):
        with pytest.raises(ValueError):
            participant_bandwidth_gbps(AUDIO, -1)
        with pytest.raises(ValueError):
            participant_compute_cores(AUDIO, -1)

    def test_screenshare_between_audio_and_video(self):
        audio = participant_bandwidth_gbps(AUDIO, 1)
        screen = participant_bandwidth_gbps(SCREENSHARE, 1)
        video = participant_bandwidth_gbps(VIDEO, 1)
        assert audio < screen < video


class TestDemandArithmetic:
    @pytest.fixture(scope="class")
    def demand(self):
        universe = ConfigUniverse(default_world().europe_countries)
        return DemandModel(universe, daily_calls=8_000)

    def test_diurnal_shape_normalized(self):
        total = sum(diurnal_factor(s) for s in range(SLOTS_PER_DAY))
        # The DemandModel divides by this; the shape itself is positive.
        assert total > 0
        assert all(diurnal_factor(s) > 0 for s in range(SLOTS_PER_DAY))

    def test_expected_counts_scale_with_daily_calls(self, demand):
        universe = demand.universe
        double = DemandModel(universe, daily_calls=16_000, seed=demand.seed)
        config = universe.configs[0]
        assert double.expected_count(config, 20) == pytest.approx(
            2 * demand.expected_count(config, 20)
        )

    def test_day_shock_centred_near_one(self, demand):
        shocks = [demand.day_shock(day) for day in range(200)]
        assert np.mean(shocks) == pytest.approx(1.0, abs=0.05)
        assert 0.7 < min(shocks) and max(shocks) < 1.4

    def test_sample_count_mean_tracks_expectation(self, demand):
        config = demand.universe.configs[0]
        slot_of_day = 20
        samples = [
            demand.series(config, d * SLOTS_PER_DAY + slot_of_day, 1)[0] for d in range(0, 56, 7)
        ]
        expected = demand.expected_count(config, slot_of_day)
        assert np.mean(samples) == pytest.approx(expected, rel=0.5)

    @settings(max_examples=25, deadline=None)
    @given(slot=st.integers(min_value=0, max_value=5000))
    def test_sample_count_non_negative(self, demand, slot):
        config = demand.universe.configs[1]
        assert demand.series(config, slot, 1)[0] >= 0
