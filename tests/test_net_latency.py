"""Tests for the WAN vs Internet latency model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.world import default_world
from repro.net.latency import (
    INTERNET,
    REGION_PEERING,
    WAN,
    LatencyModel,
    LatencyModelParams,
    default_richness_calibration,
)
from repro.net.topology import WanTopology


@pytest.fixture(scope="module")
def model():
    return LatencyModel(default_world())


class TestBaseRtt:
    def test_positive_and_finite(self, model):
        for cc, dc in [("FR", "westeurope"), ("US", "hongkong"), ("AU", "ireland")]:
            for option in (WAN, INTERNET):
                rtt = model.base_rtt_ms(cc, dc, option)
                assert 0 < rtt < 1000

    def test_deterministic_across_instances(self):
        m1 = LatencyModel(default_world(), seed=3)
        m2 = LatencyModel(default_world(), seed=3)
        assert m1.base_rtt_ms("GB", "westeurope", WAN) == m2.base_rtt_ms("GB", "westeurope", WAN)

    def test_seed_changes_values(self):
        m1 = LatencyModel(default_world(), seed=3)
        m2 = LatencyModel(default_world(), seed=4)
        assert m1.base_rtt_ms("GB", "westeurope", WAN) != m2.base_rtt_ms("GB", "westeurope", WAN)

    def test_unknown_option_rejected(self, model):
        with pytest.raises(ValueError):
            model.base_rtt_ms("FR", "westeurope", "quantum")

    def test_nearby_pairs_have_low_rtt(self, model):
        assert model.base_rtt_ms("NL", "westeurope", WAN) < 40
        assert model.base_rtt_ms("NL", "westeurope", INTERNET) < 40

    def test_far_pairs_have_high_rtt(self, model):
        assert model.base_rtt_ms("AU", "ireland", WAN) > 150
        assert model.base_rtt_ms("AU", "ireland", INTERNET) > 150

    def test_rtt_scales_with_distance(self, model):
        near = model.base_rtt_ms("FR", "france-central", WAN)
        far = model.base_rtt_ms("FR", "australia-east", WAN)
        assert far > 3 * near


class TestHourlyMedians:
    def test_deterministic_per_hour(self, model):
        a = model.hourly_median_rtt_ms("FR", "westeurope", INTERNET, 42)
        b = model.hourly_median_rtt_ms("FR", "westeurope", INTERNET, 42)
        assert a == b

    def test_varies_across_hours(self, model):
        vals = {model.hourly_median_rtt_ms("FR", "westeurope", INTERNET, h) for h in range(24)}
        assert len(vals) > 20

    def test_hourly_stays_near_base(self, model):
        base = model.base_rtt_ms("US", "westeurope", WAN)
        vals = [model.hourly_median_rtt_ms("US", "westeurope", WAN, h) for h in range(168)]
        assert min(vals) > 0.8 * base
        assert max(vals) < 1.6 * base

    def test_internet_noisier_than_wan(self, model):
        internet = [model.hourly_median_rtt_ms("US", "westeurope", INTERNET, h) for h in range(336)]
        wan = [model.hourly_median_rtt_ms("US", "westeurope", WAN, h) for h in range(336)]
        cv_internet = np.std(internet) / np.mean(internet)
        cv_wan = np.std(wan) / np.mean(wan)
        assert cv_internet > cv_wan

    def test_long_term_improvement(self, model):
        """Fig 18: latencies improve over 12 months for most paths."""
        def median_rtt(week_offset):
            return np.median(
                [
                    model.hourly_median_rtt_ms("US", "westeurope", INTERNET, h, week_offset)
                    for h in range(168)
                ]
            )

        now = median_rtt(52)
        past = median_rtt(0)
        assert now < past

    def test_internet_improves_more_than_wan(self):
        params = LatencyModelParams()
        assert params.internet_trend_per_year > params.wan_trend_per_year


class TestCalibration:
    def test_calibration_table_loaded_by_default(self, model):
        table = default_richness_calibration()
        assert len(table) == 132  # 22 countries x 6 DCs
        assert model.richness_overrides == table

    def test_fig3_buckets_match_paper_shape(self, model):
        """§3: 33.7% better / 24.0% ≤10ms / 19.6% 10–25ms / 22.7% >25ms."""
        world = model.world
        diffs = []
        for country in world.countries:
            for dc in world.dcs:
                for hour in range(0, 168, 8):
                    diffs.append(
                        model.hourly_median_rtt_ms(country.code, dc.code, INTERNET, hour)
                        - model.hourly_median_rtt_ms(country.code, dc.code, WAN, hour)
                    )
        diffs = np.asarray(diffs)
        strictly_better = np.mean(diffs < 0)
        within_10 = np.mean((diffs >= 0) & (diffs <= 10))
        within_25 = np.mean((diffs > 10) & (diffs <= 25))
        beyond_25 = np.mean(diffs > 25)
        assert 0.25 <= strictly_better <= 0.45
        assert 0.15 <= within_10 <= 0.35
        assert 0.10 <= within_25 <= 0.30
        assert 0.10 <= beyond_25 <= 0.33

    def test_europe_corridor_beats_asia_corridor(self, model):
        """Fig 4: intra-Europe F is much higher than Europe→Hong Kong F."""
        from repro.measurement.calibration import measured_fraction_f

        f_eu = measured_fraction_f(model, "NL", "westeurope", hours=120)
        f_hk = measured_fraction_f(model, "FR", "hongkong", hours=120)
        assert f_eu > f_hk + 0.2

    def test_stretch_floor_is_physical(self):
        params = LatencyModelParams()
        assert params.internet_stretch(richness=5.0) >= 1.0
        assert params.internet_stretch(richness=-5.0) == params.internet_stretch(richness=-0.75)


class TestRegionPeeringTable:
    def test_every_dc_hosting_destination_pair_is_covered(self):
        """No silent 0.5 fallback for reachable corridors.

        Every ordered (client continent, DC continent) pair a scenario
        can actually produce — any continent with client countries
        calling into any continent that hosts a DC — must carry an
        explicit prior; NA→oceania and EU→oceania were missing and
        silently fell back to ``_DEFAULT_PEERING``.
        """
        world = default_world()
        client_continents = {c.continent for c in world.countries}
        dc_continents = {d.continent for d in world.dcs}
        missing = [
            (src, dst)
            for src in sorted(client_continents)
            for dst in sorted(dc_continents)
            if (src, dst) not in REGION_PEERING
        ]
        assert missing == []

    def test_priors_are_normalized(self):
        for value in REGION_PEERING.values():
            assert 0.0 <= value <= 1.0


class TestTopologyCacheStaleness:
    def test_cut_query_repair_query(self):
        """WAN RTTs track the live backbone across a cut and its repair.

        Regression for the stale-cache bug: ``LatencyModel._base_cache``
        held WAN entries across topology mutations, so RTTs queried
        before a fiber cut survived the cut, and RTTs queried during the
        cut survived the repair.
        """
        world = default_world()
        topo = WanTopology(world)
        model = LatencyModel(world, topology=topo)
        wan_before = model.base_rtt_ms("GB", "westeurope", WAN)
        internet_before = model.base_rtt_ms("GB", "westeurope", INTERNET)
        cut = None
        for link in topo.wan_path("GB", "westeurope"):
            try:
                topo.remove_link(link)
                cut = link
                break
            except ValueError:
                continue
        if cut is None:
            pytest.skip("no removable link on this path")
        wan_during = model.base_rtt_ms("GB", "westeurope", WAN)
        assert wan_during != wan_before  # the detour is a different route
        # Internet RTTs never touch the backbone; their cache stays warm.
        assert model.base_rtt_ms("GB", "westeurope", INTERNET) == internet_before
        topo.restore_link(cut)
        assert model.base_rtt_ms("GB", "westeurope", WAN) == wan_before

    def test_unqueried_model_unaffected_by_version_drift(self):
        """A model built after mutations computes fresh values directly."""
        world = default_world()
        topo = WanTopology(world)
        reference = LatencyModel(world, topology=WanTopology(world)).base_rtt_ms(
            "FR", "ireland", WAN
        )
        for link in topo.wan_path("FR", "ireland"):
            try:
                topo.remove_link(link)
                topo.restore_link(link)
                break
            except ValueError:
                continue
        assert LatencyModel(world, topology=topo).base_rtt_ms("FR", "ireland", WAN) == reference


class TestSubCountryGranularity:
    def test_city_offsets_stable(self, model):
        assert model.city_offset_ms("FR", 3) == model.city_offset_ms("FR", 3)

    def test_city_offsets_differ(self, model):
        offsets = {model.city_offset_ms("FR", i) for i in range(10)}
        assert len(offsets) == 10

    def test_asn_multiplier_close_to_one(self, model):
        world = model.world
        for asn in world.asns("US"):
            mult = model.asn_multiplier("US", asn.number)
            assert 0.7 <= mult <= 1.3

    def test_unknown_asn_has_unit_multiplier(self, model):
        assert model.asn_multiplier("US", 999999999) == 1.0


class TestOneWay:
    def test_one_way_is_half_rtt(self, model):
        rtt = model.base_rtt_ms("GB", "ireland", WAN)
        assert model.one_way_ms("GB", "ireland", WAN) == pytest.approx(rtt / 2)


@settings(max_examples=20, deadline=None)
@given(hour=st.integers(min_value=0, max_value=10_000))
def test_any_hour_yields_positive_latency(hour):
    model = LatencyModel(default_world())
    val = model.hourly_median_rtt_ms("DE", "ireland", INTERNET, hour)
    assert val >= 1.0
