"""Tests for the measurement-study substrate (§3)."""

import numpy as np
import pytest

from repro.geo.world import FIG4_DC_CODES, default_world
from repro.measurement.aggregate import (
    PAPER_DIFF_BUCKETS,
    diff_buckets,
    diff_series,
    fraction_f_heatmap,
    global_diff_buckets,
    hourly_medians_from_records,
    longterm_latency_changes,
)
from repro.measurement.calibration import (
    FIG4_COUNTRY_ORDER,
    PAPER_FIG4_F,
    PAPER_FIG19_F,
    paper_fraction_f,
)
from repro.measurement.campaign import MeasurementCampaign
from repro.measurement.granularity import (
    fraction_f_by_group,
    model_fraction_f,
    model_granularity_summary,
    weighted_difference,
)
from repro.measurement.probes import LoadBalancer, ProbeRecord, ProbeVm
from repro.net.latency import INTERNET, WAN, LatencyModel


@pytest.fixture(scope="module")
def world():
    return default_world()


@pytest.fixture(scope="module")
def model(world):
    return LatencyModel(world)


@pytest.fixture(scope="module")
def small_campaign(world, model):
    campaign = MeasurementCampaign(
        world, model, dc_codes=["westeurope", "us-central"], probes_per_country_hour=8
    )
    records, stats = campaign.run(24)
    return records, stats


class TestProbes:
    def test_vm_option_validated(self):
        with pytest.raises(ValueError):
            ProbeVm("westeurope", "smoke")

    def test_load_balancer_round_robin(self):
        balancer = LoadBalancer(["a", "b"])
        picks = [balancer.pick() for _ in range(8)]
        # 2 VMs per DC, cycled.
        assert len({(p.dc_code, p.option) for p in picks[:4]}) == 4
        assert picks[0] == picks[4]

    def test_load_balancer_needs_dcs(self):
        with pytest.raises(ValueError):
            LoadBalancer([])

    def test_record_validation(self):
        with pytest.raises(ValueError):
            ProbeRecord(0, "westeurope", WAN, -1.0, "FR", "fr-city-0", 1, "1.2.3.0/24")


class TestCampaign:
    def test_stats_shape_matches_table1(self, small_campaign):
        _, stats = small_campaign
        table = stats.as_table()
        assert table["destination_dcs"] == 2
        assert table["source_countries"] == 33
        assert table["source_cities"] > 100
        assert table["source_asns"] > 100
        assert table["avg_measurements_per_day"] > 0

    def test_records_deterministic(self, world, model):
        c1 = MeasurementCampaign(world, model, dc_codes=["westeurope"], probes_per_country_hour=3)
        c2 = MeasurementCampaign(world, model, dc_codes=["westeurope"], probes_per_country_hour=3)
        r1, _ = c1.run(2)
        r2, _ = c2.run(2)
        assert [r.rtt_ms for r in r1] == [r.rtt_ms for r in r2]

    def test_both_options_probed(self, small_campaign):
        records, _ = small_campaign
        options = {r.option for r in records}
        assert options == {WAN, INTERNET}

    def test_invalid_params(self, world, model):
        with pytest.raises(ValueError):
            MeasurementCampaign(world, model, probes_per_country_hour=0)
        campaign = MeasurementCampaign(world, model, dc_codes=["westeurope"])
        with pytest.raises(ValueError):
            campaign.run(-1)


class TestAggregation:
    def test_hourly_medians(self, small_campaign):
        records, _ = small_campaign
        medians = hourly_medians_from_records(records)
        assert medians
        assert all(v > 0 for v in medians.values())

    def test_diff_buckets_sum_to_one(self, model):
        diffs = diff_series(model, "FR", "westeurope", hours=72)
        buckets = diff_buckets(diffs)
        total = sum(buckets.as_dict().values())
        assert total == pytest.approx(1.0)

    def test_diff_buckets_empty_rejected(self):
        with pytest.raises(ValueError):
            diff_buckets([])

    def test_global_buckets_close_to_paper(self, model):
        """Fig 3 headline: 33.7 / 24.0 / 19.6 / 22.7 (%)."""
        ours = global_diff_buckets(model, hours=120, hour_step=8)
        paper = PAPER_DIFF_BUCKETS
        assert abs(ours.strictly_better - paper.strictly_better) < 0.10
        assert abs(ours.within_10ms - paper.within_10ms) < 0.10
        assert abs(ours.within_25ms - paper.within_25ms) < 0.10
        assert abs(ours.beyond_25ms - paper.beyond_25ms) < 0.10

    def test_fraction_f_heatmap_close_to_fig4(self, model):
        """Calibrated cells reproduce the published Fig 4 heatmap."""
        countries = list(FIG4_COUNTRY_ORDER[:8])
        dcs = ["westeurope", "hongkong"]
        heatmap = fraction_f_heatmap(model, countries, dcs, hours=120)
        errors = []
        for dc in dcs:
            for country in countries:
                target = paper_fraction_f(country, dc)
                assert target is not None
                errors.append(abs(heatmap[dc][country] - target))
        assert np.mean(errors) < 0.12

    def test_paper_fraction_f_lookup(self):
        assert paper_fraction_f("US", "westeurope") == 0.64
        assert paper_fraction_f("US", "westeurope", epoch="dec23") == 0.60
        assert paper_fraction_f("ZZ", "westeurope") is None
        assert paper_fraction_f("US", "mars") is None

    def test_fig4_tables_complete(self):
        for table in (PAPER_FIG4_F, PAPER_FIG19_F):
            assert set(table) == set(FIG4_DC_CODES)
            assert all(len(row) == 22 for row in table.values())
            assert all(0.0 <= v <= 1.0 for row in table.values() for v in row)

    def test_longterm_improvement(self, model):
        """Fig 18: 80+% of paths improve over 12 months."""
        countries = ["US", "GB", "FR", "DE", "JP", "IN", "BR", "AU"]
        dcs = ["westeurope", "us-central", "hongkong"]
        changes = longterm_latency_changes(model, countries, dcs, hours=96)
        for option in (WAN, INTERNET):
            improved = np.mean(changes[option] < 0)
            assert improved > 0.7, option
        # Internet improves a bit more (paper's observation).
        assert np.median(changes[INTERNET]) <= np.median(changes[WAN])


class TestGranularity:
    def test_model_fraction_f_bounds(self, model):
        f = model_fraction_f(model, "FR", "westeurope", hours=48)
        assert 0.0 <= f <= 1.0

    def test_city_effect_smaller_than_asn(self, model):
        """Fig 5: city-level clustering diverges less than ASN-level."""
        countries = ["US", "GB", "FR", "PL", "IT", "ES"]
        summary = model_granularity_summary(
            model, countries, ["westeurope"], hours=48, granularities=("asn", "city")
        )
        assert summary["city"]["p50"] < summary["asn"]["p50"]

    @pytest.mark.slow
    def test_granularity_differences_bounded(self, model):
        """Fig 5: country-level clustering is good enough (D small)."""
        countries = ["US", "GB", "FR", "PL", "IT", "ES", "SE", "CH"]
        summary = model_granularity_summary(
            model, countries, ["westeurope", "us-central"], hours=48,
            granularities=("asn", "city", "city_asn"),
        )
        for granularity, stats in summary.items():
            assert stats["p50"] < 0.25, granularity
            assert stats["p90"] < 0.5, granularity

    def test_record_based_group_fractions(self, small_campaign):
        records, _ = small_campaign
        fractions = fraction_f_by_group(records, "westeurope", None)
        assert fractions
        assert all(0.0 <= f <= 1.0 for f in fractions.values())

    def test_record_based_weighted_difference(self, small_campaign):
        records, _ = small_campaign
        diffs = weighted_difference(records, "westeurope", "asn")
        assert diffs
        assert all(d >= 0 for d in diffs.values())

    def test_unknown_granularity(self, small_campaign):
        records, _ = small_campaign
        with pytest.raises(ValueError):
            fraction_f_by_group(records, "westeurope", "postcode")
