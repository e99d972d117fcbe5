"""Tests for the oracle policies and the evaluation metrics (§7)."""

import pytest

from repro.analysis.metrics import LoadMatrix, evaluate_assignment, normalize_to, savings_vs
from repro.analysis.stats import cdf_at, summarize, weighted_percentile
from repro.core.policies import LocalityFirstPolicy, TitanNextPolicy, TitanPolicy, WrrPolicy
from repro.core.scenario import Scenario
from repro.core.titan_next import oracle_demand_for_day


@pytest.fixture(scope="module")
def demand_day(small_setup):
    # The window reaches into the morning peak (slot 16 = 8:00) so the
    # sample is large enough for the statistical invariants below
    # (Titan-tracks-WRR, bounded Internet share) to hold with margin.
    full = oracle_demand_for_day(small_setup, day=2)
    return {k: v for k, v in full.items() if k[0] < 16}


@pytest.fixture(scope="module")
def policy_results(small_setup, demand_day):
    results = {}
    for policy in (
        WrrPolicy(small_setup.scenario),
        TitanPolicy(small_setup.scenario),
        LocalityFirstPolicy(small_setup.scenario),
        TitanNextPolicy(small_setup.scenario),
    ):
        assignment = policy.assign(demand_day)
        results[policy.name] = evaluate_assignment(small_setup.scenario, assignment, policy.name)
    return results


class TestNoCompute:
    """A fleet with every compute cap 0 weighs its DCs equally."""

    @pytest.fixture(scope="class")
    def no_compute(self, small_setup):
        scenario = small_setup.scenario
        return Scenario(
            scenario.world,
            scenario.latency,
            scenario.country_codes,
            scenario.dc_codes,
            scenario.capacity_book,
            compute_caps={dc: 0.0 for dc in scenario.dc_codes},
            slots_per_day=scenario.slots_per_day,
        )

    def test_compute_shares_are_equal(self, small_setup, no_compute):
        n_dc = len(no_compute.dc_codes)
        assert no_compute.compute_shares() == [1.0 / n_dc] * n_dc
        shares = small_setup.scenario.compute_shares()
        caps = [small_setup.scenario.compute_caps[dc] for dc in small_setup.scenario.dc_codes]
        assert shares == [cap / sum(caps) for cap in caps]

    @pytest.mark.parametrize("make", [WrrPolicy, TitanPolicy], ids=["wrr", "titan"])
    def test_policy_spreads_calls_over_every_dc(self, no_compute, demand_day, make):
        assignment = make(no_compute).assign(demand_day)
        per_dc = {dc: 0.0 for dc in no_compute.dc_codes}
        for (_, _, dc, _), count in assignment.items():
            per_dc[dc] += count
        total = sum(per_dc.values())
        assert total == pytest.approx(sum(demand_day.values()), rel=0.01)
        # WRR splits exactly; Titan's multinomial draws (~130 calls per
        # DC here) stay within four standard deviations.
        for count in per_dc.values():
            assert count == pytest.approx(total / len(per_dc), rel=0.3)


class TestPolicyInvariants:
    def test_all_policies_assign_all_calls(self, small_setup, demand_day, policy_results):
        total = sum(demand_day.values())
        for name, result in policy_results.items():
            assert result.total_calls == pytest.approx(total, rel=0.01), name

    def test_titan_next_has_lowest_peaks(self, policy_results):
        """Fig 14: TN wins on sum-of-peaks."""
        peaks = {n: r.sum_of_peaks_gbps for n, r in policy_results.items()}
        assert peaks["titan-next"] == min(peaks.values())

    def test_titan_next_beats_wrr_significantly(self, policy_results):
        """Fig 14: TN reduces WAN BW by 24-28% vs WRR on weekdays."""
        peaks = {n: r.sum_of_peaks_gbps for n, r in policy_results.items()}
        savings = savings_vs(peaks, "wrr")["titan-next"]
        assert savings > 0.15

    def test_lf_beats_wrr_on_latency(self, policy_results):
        """Table 3: LF is latency-optimal, WRR is not."""
        assert policy_results["lf"].mean_e2e_ms() < policy_results["wrr"].mean_e2e_ms()

    def test_titan_next_latency_close_to_lf(self, policy_results):
        """Table 3: TN's E2E latency is close to LF, far below WRR."""
        lf = policy_results["lf"].mean_e2e_ms()
        tn = policy_results["titan-next"].mean_e2e_ms()
        wrr = policy_results["wrr"].mean_e2e_ms()
        assert tn < wrr
        assert tn - lf < 0.75 * (wrr - lf)

    def test_wrr_and_titan_similar(self, policy_results):
        """Titan (random) tracks WRR (proportional) in expectation."""
        wrr = policy_results["wrr"].sum_of_peaks_gbps
        titan = policy_results["titan"].sum_of_peaks_gbps
        assert titan == pytest.approx(wrr, rel=0.25)

    def test_lf_e2e_variant_runs(self, small_setup, demand_day):
        policy = LocalityFirstPolicy(small_setup.scenario, objective="total_e2e")
        assignment = policy.assign(demand_day)
        result = evaluate_assignment(small_setup.scenario, assignment, "lf-e2e")
        assert result.total_calls > 0

    def test_lf_invalid_objective(self, small_setup):
        with pytest.raises(ValueError):
            LocalityFirstPolicy(small_setup.scenario, objective="sum_of_peaks")

    def test_titan_respects_disabled_countries(self, small_setup, demand_day, policy_results):
        for name, result in policy_results.items():
            for ((country, dc), t), load in result.internet_loads.items():
                assert country not in ("DE", "AT"), name


class TestLoadMatrix:
    def test_sum_of_peaks(self):
        matrix = LoadMatrix()
        matrix.add(0, 0, 5.0)
        matrix.add(0, 1, 3.0)
        matrix.add(1, 0, 2.0)
        assert matrix.link_peak(0) == 5.0
        assert matrix.sum_of_peaks() == 7.0
        assert matrix.total_traffic() == 10.0
        assert matrix.slot_load(0) == 7.0

    def test_accumulates(self):
        matrix = LoadMatrix()
        matrix.add(0, 0, 1.0)
        matrix.add(0, 0, 2.0)
        assert matrix.link_peak(0) == 3.0

    def test_empty(self):
        matrix = LoadMatrix()
        assert matrix.sum_of_peaks() == 0.0
        assert matrix.link_peak(5) == 0.0


class TestMetricsHelpers:
    def test_normalize_to(self):
        normalized = normalize_to({"a": 10.0, "b": 5.0}, "a")
        assert normalized == {"a": 1.0, "b": 0.5}

    def test_normalize_missing_reference(self):
        with pytest.raises(KeyError):
            normalize_to({"a": 1.0}, "z")

    def test_savings(self):
        savings = savings_vs({"wrr": 10.0, "tn": 6.0}, "wrr")
        assert savings["tn"] == pytest.approx(0.4)

    def test_weighted_percentile(self):
        assert weighted_percentile([1, 2, 3], [1, 1, 1], 50) == 2
        assert weighted_percentile([1, 2, 3], [0, 0, 1], 50) == 3

    def test_weighted_percentile_validation(self):
        with pytest.raises(ValueError):
            weighted_percentile([], [], 50)
        with pytest.raises(ValueError):
            weighted_percentile([1], [1], 150)
        with pytest.raises(ValueError):
            weighted_percentile([1, 2], [1, -1], 50)

    def test_cdf_at(self):
        assert cdf_at([1, 2, 3, 4], 2.5) == 0.5

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["median"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0

    def test_internet_share_bounded(self, policy_results):
        for name, result in policy_results.items():
            assert 0.0 <= result.internet_share <= 0.5, name
