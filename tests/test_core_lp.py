"""Tests for the Titan-Next joint LP (Fig 13) and the scenario layer."""

import pytest

from repro.core.capacity import InternetCapacityBook
from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.core.scenario import Scenario
from repro.core.titan_next import oracle_demand_for_day
from repro.net.latency import INTERNET, WAN
from repro.workload.configs import CallConfig
from repro.workload.media import AUDIO


@pytest.fixture(scope="module")
def demand_day(small_setup):
    # A small demand slice: first 8 slots of a Wednesday.
    full = oracle_demand_for_day(small_setup, day=2)
    return {k: v for k, v in full.items() if k[0] < 8}


class TestScenario:
    def test_e2e_latency_intra_country_doubles_one_way(self, small_setup):
        scenario = small_setup.scenario
        config = CallConfig.from_counts({"FR": 1}, AUDIO)
        one_way = scenario.one_way_ms("FR", "westeurope", WAN)
        assert scenario.e2e_latency_ms(config, "westeurope", WAN) == pytest.approx(2 * one_way)

    def test_e2e_latency_uses_top_two(self, small_setup):
        scenario = small_setup.scenario
        config = CallConfig.from_counts({"FR": 1, "GB": 1, "PL": 1}, AUDIO)
        one_ways = sorted(
            (scenario.one_way_ms(c, "westeurope", WAN) for c in ("FR", "GB", "PL")),
            reverse=True,
        )
        expected = one_ways[0] + one_ways[1]
        assert scenario.e2e_latency_ms(config, "westeurope", WAN) == pytest.approx(expected)

    def test_total_latency_weights_participants(self, small_setup):
        scenario = small_setup.scenario
        config = CallConfig.from_counts({"FR": 3}, AUDIO)
        assert scenario.total_latency_ms(config, "ireland", WAN) == pytest.approx(
            3 * scenario.one_way_ms("FR", "ireland", WAN)
        )

    def test_config_internet_fraction_is_minimum(self, small_setup):
        scenario = small_setup.scenario
        config = CallConfig.from_counts({"FR": 1, "DE": 1}, AUDIO)
        # DE is disabled, so the config's fraction is 0.
        assert scenario.config_internet_fraction(config, "westeurope") == 0.0

    def test_link_indices_non_empty_for_wan(self, small_setup):
        scenario = small_setup.scenario
        for country in scenario.country_codes[:5]:
            for dc in scenario.dc_codes:
                assert len(scenario.link_indices(country, dc)) >= 1

    def test_validation(self, small_setup):
        with pytest.raises(ValueError):
            Scenario(
                small_setup.world,
                small_setup.scenario.latency,
                [],
                ["westeurope"],
                small_setup.capacity_book,
            )

    def test_compute_caps_calibrated_above_peak(self, small_setup):
        total_caps = sum(small_setup.scenario.compute_caps.values())
        peak = 0.0
        for slot in range(48):
            need = sum(
                small_setup.demand.expected_count(d.config, slot) * d.config.compute_cores()
                for d in small_setup.universe.top(small_setup.top_n_configs)
            )
            peak = max(peak, need)
        assert total_caps > peak


class TestJointLpOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            JointLpOptions(e2e_bound_ms=0)
        with pytest.raises(ValueError):
            JointLpOptions(objective="make-money")
        with pytest.raises(ValueError):
            JointLpOptions(internet_capacity_factor=-1)


class TestJointLp:
    def test_empty_demand_rejected(self, small_setup):
        with pytest.raises(ValueError):
            JointAssignmentLp(small_setup.scenario, {})

    def test_c1_all_calls_assigned(self, small_setup, demand_day):
        lp = JointAssignmentLp(small_setup.scenario, demand_day)
        result = lp.solve()
        assert result.is_optimal
        for (t, config), count in demand_day.items():
            assigned = sum(
                v for (tt, c, _, _), v in result.assignment.items() if tt == t and c == config
            )
            assert assigned == pytest.approx(count, rel=1e-6, abs=1e-6)

    def test_c2_compute_caps_respected(self, small_setup, demand_day):
        lp = JointAssignmentLp(small_setup.scenario, demand_day)
        result = lp.solve()
        scenario = small_setup.scenario
        for t in {k[0] for k in demand_day}:
            for dc in scenario.dc_codes:
                used = sum(
                    v * c.compute_cores()
                    for (tt, c, d, _), v in result.assignment.items()
                    if tt == t and d == dc
                )
                assert used <= scenario.compute_caps[dc] * (1 + 1e-6)

    def test_c3_internet_caps_respected(self, small_setup, demand_day):
        lp = JointAssignmentLp(small_setup.scenario, demand_day)
        result = lp.solve()
        scenario = small_setup.scenario
        for t in {k[0] for k in demand_day}:
            for country in scenario.country_codes:
                for dc in scenario.dc_codes:
                    used = sum(
                        v * c.country_bandwidth_gbps(country)
                        for (tt, c, d, option), v in result.assignment.items()
                        if tt == t and d == dc and option == INTERNET
                    )
                    cap = scenario.internet_cap_gbps(country, dc)
                    assert used <= cap * (1 + 1e-6) + 1e-9

    def test_c4_e2e_bound_respected(self, small_setup, demand_day):
        options = JointLpOptions(e2e_bound_ms=60.0)
        lp = JointAssignmentLp(small_setup.scenario, demand_day, options)
        result = lp.solve()
        assert result.is_optimal
        total = sum(demand_day.values())
        weighted = sum(
            v * small_setup.scenario.e2e_latency_ms(c, d, o)
            for (t, c, d, o), v in result.assignment.items()
        )
        assert weighted / total <= 60.0 * (1 + 1e-6)

    def test_disabled_country_gets_no_internet(self, small_setup, demand_day):
        lp = JointAssignmentLp(small_setup.scenario, demand_day)
        result = lp.solve()
        for (t, config, dc, option), v in result.assignment.items():
            if option == INTERNET:
                assert "DE" not in config.countries
                assert "AT" not in config.countries

    def test_build_does_not_write_a_partial_capacity_book(self, small_setup, demand_day):
        """Pairs the book never set read as zero capacity and stay absent."""
        book = InternetCapacityBook()
        pair = next(p for p in small_setup.scenario.capacity_book.pairs() if p.gbps > 0)
        book.set_gbps(pair.country_code, pair.dc_code, pair.gbps)
        before = book.snapshot()
        JointAssignmentLp(small_setup.scenario.with_capacity_book(book), demand_day)._build()
        assert book.snapshot() == before

    def test_mp_only_ablation_uses_no_internet(self, small_setup, demand_day):
        options = JointLpOptions(allow_internet=False)
        lp = JointAssignmentLp(small_setup.scenario, demand_day, options)
        result = lp.solve()
        assert result.is_optimal
        assert all(option == WAN for (_, _, _, option) in result.assignment)

    def test_internet_reduces_wan_peaks(self, small_setup, demand_day):
        """§7.4: Internet offload adds savings on top of placement."""
        from repro.analysis.metrics import evaluate_batch

        with_internet = JointAssignmentLp(small_setup.scenario, demand_day).solve()
        without = JointAssignmentLp(
            small_setup.scenario, demand_day, JointLpOptions(allow_internet=False)
        ).solve()
        scenario = small_setup.scenario
        peaks_with = evaluate_batch(scenario, with_internet.assignment).sum_of_peaks_gbps
        peaks_without = evaluate_batch(scenario, without.assignment).sum_of_peaks_gbps
        assert peaks_with < peaks_without

    def test_doubled_internet_saves_more(self, small_setup, demand_day):
        """§7.4: hypothetically doubling Internet capacity saves more."""
        from repro.analysis.metrics import evaluate_batch

        base = JointAssignmentLp(small_setup.scenario, demand_day).solve()
        doubled = JointAssignmentLp(
            small_setup.scenario, demand_day, JointLpOptions(internet_capacity_factor=2.0)
        ).solve()
        peaks_base = evaluate_batch(small_setup.scenario, base.assignment).sum_of_peaks_gbps
        peaks_doubled = evaluate_batch(
            small_setup.scenario, doubled.assignment
        ).sum_of_peaks_gbps
        assert peaks_doubled <= peaks_base * (1 + 1e-9)

    def test_single_dc_ablation_restricts_columns(self, small_setup, demand_day):
        options = JointLpOptions(single_dc_per_config=True)
        lp = JointAssignmentLp(small_setup.scenario, demand_day, options)
        result = lp.solve()
        assert result.is_optimal
        by_config = {}
        for (t, config, dc, option), v in result.assignment.items():
            by_config.setdefault(config, set()).add(dc)
        assert all(len(dcs) == 1 for dcs in by_config.values())

    def test_lp_peaks_match_evaluator(self, small_setup, demand_day):
        """The LP's y_l values agree with independently recomputed loads."""
        from repro.analysis.metrics import evaluate_batch

        result = JointAssignmentLp(small_setup.scenario, demand_day).solve()
        evaluated = evaluate_batch(small_setup.scenario, result.assignment)
        assert evaluated.sum_of_peaks_gbps == pytest.approx(
            result.sum_of_peaks(), rel=1e-5, abs=1e-6
        )
