"""Tests for the cost model and text reporting helpers."""

import numpy as np
import pytest

from repro.analysis.cost import GCP_SINGAPORE, Tariff, compare_costs, cost_of, internet_traffic_gb
from repro.analysis.metrics import evaluate_assignment
from repro.analysis.reporting import bar_chart, cdf_sparkline, format_table, policy_comparison
from repro.core.policies import TitanNextPolicy, WrrPolicy
from repro.core.titan_next import oracle_demand_for_day


@pytest.fixture(scope="module")
def policy_results(small_setup):
    demand = {
        k: v for k, v in oracle_demand_for_day(small_setup, day=2).items() if k[0] < 8
    }
    results = {}
    for policy in (WrrPolicy(small_setup.scenario), TitanNextPolicy(small_setup.scenario)):
        assignment = policy.assign(demand)
        results[policy.name] = evaluate_assignment(small_setup.scenario, assignment, policy.name)
    return results


class TestTariff:
    def test_paper_discount(self):
        """§2.3: Internet is cheaper than WAN by up to 53%."""
        assert GCP_SINGAPORE.internet_discount == pytest.approx(0.5)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            Tariff(wan_per_peak_gbps=-1.0)

    def test_zero_wan_rate_gives_zero_discount(self):
        assert Tariff(wan_per_gb_equivalent=0.0).internet_discount == 0.0


class TestCost:
    def test_cost_components_non_negative(self, policy_results):
        for result in policy_results.values():
            report = cost_of(result)
            assert report.wan_peak_cost >= 0
            assert report.internet_egress_cost >= 0
            assert report.total == report.wan_peak_cost + report.internet_egress_cost

    def test_titan_next_cheaper_than_wrr(self, policy_results):
        """Lower peaks + cheap egress = lower bill: the paper's pitch."""
        costs = {name: cost_of(result).total for name, result in policy_results.items()}
        assert costs["titan-next"] < costs["wrr"]

    def test_egress_savings_positive_when_offloading(self, policy_results):
        report = cost_of(policy_results["titan-next"])
        # Internet is half the per-GB price: positive savings on moved GB.
        assert report.egress_savings >= 0

    def test_internet_traffic_gb_scales(self, policy_results):
        tn = internet_traffic_gb(policy_results["titan-next"])
        wrr = internet_traffic_gb(policy_results["wrr"])
        assert tn >= 0 and wrr >= 0

    def test_compare_costs_normalization(self, policy_results):
        table = compare_costs(policy_results, reference="wrr")
        assert table["wrr"]["normalized_total"] == pytest.approx(1.0)
        assert table["titan-next"]["normalized_total"] < 1.0

    def test_compare_costs_missing_reference(self, policy_results):
        with pytest.raises(KeyError):
            compare_costs(policy_results, reference="magic")


class TestReporting:
    def test_format_table_aligned(self):
        rows = {"wrr": {"a": 1.0, "b": 2.0}, "tn": {"a": 0.5, "b": 1.5}}
        text = format_table(rows, row_header="policy")
        lines = text.splitlines()
        assert len(lines) == 3
        assert "policy" in lines[0]
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_empty(self):
        with pytest.raises(ValueError):
            format_table({})

    def test_bar_chart_scales_to_peak(self):
        chart = bar_chart({"a": 10.0, "b": 5.0}, width=20)
        lines = chart.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0})

    def test_policy_comparison_contains_all_policies(self, policy_results):
        text = policy_comparison(policy_results)
        for name in policy_results:
            assert name in text

    def test_cdf_sparkline_length(self):
        rng = np.random.default_rng(0)
        spark = cdf_sparkline(rng.normal(size=500), bins=24)
        assert len(spark) == 24

    def test_cdf_sparkline_constant_series(self):
        assert len(cdf_sparkline([3.0, 3.0, 3.0], bins=8)) == 8

    def test_cdf_sparkline_empty(self):
        with pytest.raises(ValueError):
            cdf_sparkline([])
