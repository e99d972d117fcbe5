"""Coverage for the §6.3 future-work split-routing prototype.

:mod:`repro.core.split_lp` replaces the joint LP's all-or-nothing
routing choice with a per-(slot, config, DC, country) Internet split
``Z ≤ X``.  These tests pin the prototype's contract on a tiny
scenario: every call placed, splits bounded by placements, shares in
``[0, 1]``, and the options guard rejecting a non-positive RTT bound.
"""

import pytest

from repro.core.split_lp import SplitLpOptions, SplitRoutingLp
from repro.core.titan_next import oracle_demand_for_day

SLOTS = 2
N_CONFIGS = 5


@pytest.fixture(scope="module")
def tiny_demand(small_setup):
    """A couple of busy slots of one oracle day, a handful of configs."""
    full = {k: v for k, v in oracle_demand_for_day(small_setup, day=2).items() if v > 0}
    slots = sorted({t for t, _ in full})[:SLOTS]
    configs = sorted({c for (t, c) in full if t in slots}, key=str)[:N_CONFIGS]
    keep = set(configs)
    demand = {
        (t, config): count
        for (t, config), count in full.items()
        if t in slots and config in keep
    }
    assert demand, "fixture bug: restricted demand is empty"
    return demand


@pytest.fixture(scope="module")
def solved(small_setup, tiny_demand):
    return SplitRoutingLp(small_setup.scenario, tiny_demand).solve()


class TestSplitLpOptions:
    def test_zero_rtt_bound_rejected(self):
        with pytest.raises(ValueError, match="avg_rtt_bound_ms"):
            SplitLpOptions(avg_rtt_bound_ms=0)

    def test_negative_rtt_bound_rejected(self):
        with pytest.raises(ValueError, match="avg_rtt_bound_ms"):
            SplitLpOptions(avg_rtt_bound_ms=-75.0)

    def test_defaults_are_valid(self):
        options = SplitLpOptions()
        assert options.avg_rtt_bound_ms == 80.0


class TestBuildAndSolve:
    def test_empty_demand_rejected(self, small_setup):
        with pytest.raises(ValueError, match="empty demand"):
            SplitRoutingLp(small_setup.scenario, {})

    def test_solves_optimal(self, solved):
        assert solved.is_optimal
        assert solved.objective is not None and solved.objective > 0
        assert solved.sum_of_peaks() > 0

    def test_placement_covers_demand(self, small_setup, tiny_demand, solved):
        """C1: per (slot, config), placements across DCs sum to demand."""
        for (t, config), count in tiny_demand.items():
            placed = sum(
                solved.placement.get((t, config, dc), 0.0)
                for dc in small_setup.scenario.dc_codes
            )
            assert placed == pytest.approx(count, rel=1e-6, abs=1e-6)

    def test_split_never_exceeds_placement(self, solved):
        """Z ≤ X: a country-side split cannot outgrow its placement."""
        for (t, config, dc, country), split in solved.internet_split.items():
            placed = solved.placement.get((t, config, dc), 0.0)
            assert split <= placed + 1e-6

    def test_internet_share_is_a_fraction(self, small_setup, tiny_demand, solved):
        scenario = small_setup.scenario
        for (t, config) in tiny_demand:
            for dc in scenario.dc_codes:
                for country, _ in config.participants:
                    share = solved.internet_share_of(t, config, dc, country)
                    assert 0.0 <= share <= 1.0

    def test_internet_share_of_unplaced_is_zero(self, tiny_demand, solved):
        (t, config), _ = next(iter(tiny_demand.items()))
        assert solved.internet_share_of(t, config, "no-such-dc", "no-such-country") == 0.0

    def test_infeasible_bound_reports_non_optimal(self, small_setup, tiny_demand):
        """An absurdly tight average-RTT bound has no feasible split."""
        lp = SplitRoutingLp(
            small_setup.scenario, tiny_demand, options=SplitLpOptions(avg_rtt_bound_ms=1e-6)
        )
        result = lp.solve()
        assert not result.is_optimal
        assert result.objective is None
        assert result.placement == {}

    def test_tighter_rtt_bound_never_cheapens_the_plan(self, small_setup, tiny_demand, solved):
        """Shrinking the feasible region can only raise the optimum —
        and a tight-but-feasible bound should exercise the Z machinery."""
        tight = SplitRoutingLp(
            small_setup.scenario, tiny_demand, options=SplitLpOptions(avg_rtt_bound_ms=40.0)
        ).solve()
        if tight.is_optimal:
            assert tight.objective >= solved.objective - 1e-9
