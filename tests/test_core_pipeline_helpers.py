"""Tests for pipeline helpers and the significance-aware MOS gate."""

import numpy as np
import pytest

from repro.core.ecs import ArmMetrics, QualityGates, Scorecard
from repro.core.sweep import SweepRunner
from repro.core.titan_next import (
    EUROPE_EVAL_DCS,
    oracle_demand_for_day,
    run_oracle_day,
    run_prediction_day,
)
from repro.geo.world import default_world
from tests.test_sweep_parallel import titan_next_days


class TestMosGate:
    def _card_with_mos(self, treatment_mos, control_mos):
        treatment = ArmMetrics()
        control = ArmMetrics()
        for value in treatment_mos:
            treatment.observe(20.0, 0.0, mos=value)
        for value in control_mos:
            control.observe(20.0, 0.0, mos=value)
        return Scorecard(treatment, control, QualityGates())

    def test_large_significant_drop_fires(self):
        rng = np.random.default_rng(1)
        treatment = list(rng.normal(4.2, 0.1, size=200))
        control = list(rng.normal(4.8, 0.1, size=200))
        card = self._card_with_mos(treatment, control)
        assert card.mos_regressed
        assert card.moderate_regression

    def test_noise_with_few_samples_does_not_fire(self):
        # A 0.3 drop estimated from 5 noisy ratings is not significant.
        rng = np.random.default_rng(2)
        treatment = list(rng.normal(4.5, 0.8, size=5))
        control = list(rng.normal(4.8, 0.8, size=5))
        card = self._card_with_mos(treatment, control)
        # Standard error of the difference is ~0.5, drop ~0.3: no fire.
        assert not card.mos_regressed

    def test_missing_mos_never_fires(self):
        card = self._card_with_mos([], [4.8] * 50)
        assert not card.mos_regressed

    def test_standard_error_requires_two_samples(self):
        arm = ArmMetrics()
        arm.observe(20.0, 0.0, mos=4.0)
        assert arm.mos_standard_error() is None
        arm.observe(20.0, 0.0, mos=4.5)
        assert arm.mos_standard_error() is not None


class TestPipelineHelpers:
    def test_europe_eval_dcs_exist(self):
        world = default_world()
        for code in EUROPE_EVAL_DCS:
            assert world.dc(code).continent == "europe"

    def test_oracle_demand_raw_mode_keeps_unreduced_configs(self, small_setup):
        raw = oracle_demand_for_day(small_setup, day=2, reduced=False)
        assert any(c.reduced() != c for _, c in raw)

    def test_oracle_demand_reduced_mode_only_reduced(self, small_setup):
        reduced = oracle_demand_for_day(small_setup, day=2, reduced=True)
        assert all(c.reduced() == c for _, c in reduced)

    def test_demand_mass_preserved_by_reduction(self, small_setup):
        raw = oracle_demand_for_day(small_setup, day=2, reduced=False)
        reduced = oracle_demand_for_day(small_setup, day=2, reduced=True)
        raw_participants = sum(c.total_participants * n for (_, c), n in raw.items())
        reduced_participants = sum(c.total_participants * n for (_, c), n in reduced.items())
        assert reduced_participants == pytest.approx(raw_participants)

    def test_run_oracle_day_policy_subset(self, small_setup):
        results = run_oracle_day(small_setup, day=2, policies=("wrr",))
        assert set(results) == {"wrr"}

    def test_run_oracle_day_lf_e2e_variant_available(self, small_setup):
        results = run_oracle_day(small_setup, day=2, policies=("lf-e2e",))
        assert results["lf-e2e"].total_calls > 0

    def test_weekend_uses_relaxed_e2e_bound(self, small_setup):
        # Day 5 = Saturday -> E=80; day 2 = Wednesday -> E=75 (§7.5).
        # Both must solve; the weekend bound is the looser one.
        weekday = run_oracle_day(small_setup, day=2, policies=("titan-next",))
        weekend = run_oracle_day(small_setup, day=5, policies=("titan-next",))
        assert weekday["titan-next"].total_calls > weekend["titan-next"].total_calls


class TestPredictionSweep:
    def test_sweep_day_equals_fresh_prediction_day(self, small_setup):
        """The cached sweep replays run_prediction_day."""
        sweep = titan_next_days(SweepRunner(small_setup), [30])
        fresh = run_prediction_day(small_setup, 30, policies=("titan-next",))["titan-next"]
        cached = sweep[30]
        assert cached.stats == fresh.stats
        assert [(a.call.call_id, a.final_dc, a.final_option) for a in cached.assignments] == [
            (a.call.call_id, a.final_dc, a.final_option) for a in fresh.assignments
        ]

    def test_sweep_covers_weekend_bound(self, small_setup):
        # Day 33 is a Saturday: the sweep must apply the relaxed bound
        # and still produce a plan for every requested day.
        results = titan_next_days(SweepRunner(small_setup), [32, 33])
        assert set(results) == {32, 33}
        for result in results.values():
            assert result.stats is not None and result.stats.calls > 0

    def test_sweep_needs_days(self, small_setup):
        with pytest.raises(ValueError):
            titan_next_days(SweepRunner(small_setup), [])


class TestOracleDayGuards:
    """The oracle window's guard on a cached solve that is not optimal."""

    def test_non_optimal_cached_solve_raises_runtime_error(self, small_setup, monkeypatch):
        from repro.core.lp import JointLpResult
        from repro.core.titan_next import PlanCache

        monkeypatch.setattr(
            PlanCache,
            "solve_day",
            lambda self, demand, e2e_bound_ms=None: JointLpResult("infeasible", None, {}),
        )
        with pytest.raises(RuntimeError, match="infeasible") as raised:
            SweepRunner(small_setup).run_oracle_days([2], policies=("titan-next",))
        assert raised.value.day == 2


class TestPlanningError:
    def test_infeasible_window_day_names_the_day(self, small_setup, monkeypatch):
        from repro.core import PlanningError, titan_next

        # No plan meets a 1 µs E2E bound.
        monkeypatch.setattr(titan_next, "day_e2e_bound_ms", lambda day: 1e-3)
        with pytest.raises(PlanningError, match="infeasible") as raised:
            SweepRunner(small_setup).run_prediction_window([30], policies=("titan-next",))
        assert (raised.value.status, raised.value.day, raised.value.slot) == (
            "infeasible",
            30,
            None,
        )

    def test_policy_failures_name_the_slot(self, small_setup, monkeypatch):
        from repro.core import PlanningError
        from repro.core.lp import JointAssignmentLp, JointLpResult
        from repro.core.policies import LocalityFirstPolicy, TitanNextPolicy

        monkeypatch.setattr(
            JointAssignmentLp, "solve", lambda self: JointLpResult("infeasible", None, {})
        )
        demand = oracle_demand_for_day(small_setup, 2)
        first_slot = min(t for (t, _), n in demand.items() if n > 0)
        with pytest.raises(PlanningError, match="infeasible") as lf:
            LocalityFirstPolicy(small_setup.scenario).assign(demand)
        assert (lf.value.day, lf.value.slot) == (None, first_slot)
        with pytest.raises(PlanningError, match="infeasible") as titan_next:
            TitanNextPolicy(small_setup.scenario).assign(demand)
        assert (titan_next.value.day, titan_next.value.slot) == (None, None)

    def test_fields_survive_pickle(self):
        """Policy LPs also fail inside pool workers, whose errors pickle."""
        import pickle

        from repro.core import PlanningError

        error = PlanningError("LF LP failed at slot 7: error", status="error", slot=7)
        copy = pickle.loads(pickle.dumps(error))
        assert (str(copy), copy.status, copy.day, copy.slot) == (str(error), "error", None, 7)
