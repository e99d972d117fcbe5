"""Tests for the extension modules: split routing, CLI."""

import pytest

from repro.cli import _collect_overrides, _parse_value, main
from repro.core.split_lp import SplitLpOptions, SplitRoutingLp
from repro.core.titan_next import oracle_demand_for_day


@pytest.fixture(scope="module")
def demand_slice(small_setup):
    full = oracle_demand_for_day(small_setup, day=2)
    return {k: v for k, v in full.items() if k[0] < 6}


class TestSplitRouting:
    def test_solves(self, small_setup, demand_slice):
        result = SplitRoutingLp(small_setup.scenario, demand_slice).solve()
        assert result.is_optimal

    def test_no_worse_than_single_option(self, small_setup, demand_slice):
        from repro.core.lp import JointAssignmentLp

        single = JointAssignmentLp(small_setup.scenario, demand_slice).solve()
        split = SplitRoutingLp(small_setup.scenario, demand_slice).solve()
        assert split.sum_of_peaks() <= single.sum_of_peaks() * (1 + 1e-6)

    def test_placement_covers_demand(self, small_setup, demand_slice):
        result = SplitRoutingLp(small_setup.scenario, demand_slice).solve()
        for (t, config), count in demand_slice.items():
            placed = sum(
                v for (tt, c, _), v in result.placement.items() if tt == t and c == config
            )
            assert placed == pytest.approx(count, rel=1e-6, abs=1e-6)

    def test_split_bounded_by_placement(self, small_setup, demand_slice):
        result = SplitRoutingLp(small_setup.scenario, demand_slice).solve()
        for (t, config, dc, country), split in result.internet_split.items():
            placed = result.placement.get((t, config, dc), 0.0)
            assert split <= placed + 1e-6

    def test_internet_share_in_unit_range(self, small_setup, demand_slice):
        result = SplitRoutingLp(small_setup.scenario, demand_slice).solve()
        for (t, config, dc, country) in list(result.internet_split)[:50]:
            share = result.internet_share_of(t, config, dc, country)
            assert 0.0 <= share <= 1.0

    def test_disabled_countries_never_split(self, small_setup, demand_slice):
        result = SplitRoutingLp(small_setup.scenario, demand_slice).solve()
        for (t, config, dc, country) in result.internet_split:
            assert country not in ("DE", "AT")

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SplitLpOptions(avg_rtt_bound_ms=0)

    def test_empty_demand_rejected(self, small_setup):
        with pytest.raises(ValueError):
            SplitRoutingLp(small_setup.scenario, {})


class TestCli:
    def test_parse_value(self):
        assert _parse_value("3") == 3
        assert _parse_value("3.5") == 3.5
        assert _parse_value("true") is True
        assert _parse_value("hello") == "hello"

    def test_collect_overrides(self):
        overrides = _collect_overrides(["--hours", "72", "--fast", "--hour-step", "8"])
        assert overrides == {"hours": 72, "fast": True, "hour_step": 8}

    def test_collect_rejects_stray_positional(self):
        with pytest.raises(SystemExit):
            _collect_overrides(["oops"])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out
        assert "tab4" in out

    def test_run_command(self, capsys):
        assert main(["run", "fig17"]) == 0
        out = capsys.readouterr().out
        assert "fig17" in out
        assert "measured=" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "Reproduce" in capsys.readouterr().out
