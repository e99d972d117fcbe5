"""PlanCache: the one planning path every multi-day sweep runs.

A cache keeps one HiGHS model loaded and solves each day from the slack
basis, with presolve off.  Pins three contracts:

* cached ≡ fresh solve — across the scenario zoo, each day's plan from
  one ``PlanCache`` walked in day order equals a fresh per-day
  ``JointAssignmentLp`` solve (``linprog`` with presolve), because the
  tie-break perturbation makes every day's optimum a unique vertex;
* solve order does not matter — no basis crosses solves, so a cache
  walked forward and one walked backward return identical plans,
  objectives and iteration counts;
* ``PlanCache.solve_day`` is exception-safe (no stale RHS after a
  failed solve) and serialized (safe under concurrent callers).
"""

import threading

import numpy as np
import pytest

from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.core.titan_next import PlanCache, day_e2e_bound_ms, predicted_demand_for_day
from repro.scenarios import build_scenario

DAYS = [30, 31, 32]


def window_configs(predictions):
    """The config union a sweep builds its one cache over."""
    return sorted({c for table in predictions.values() for _, c in table}, key=str)


@pytest.fixture(scope="module")
def predictions(small_setup):
    return {day: predicted_demand_for_day(small_setup, day) for day in DAYS}


@pytest.fixture(scope="module")
def planning_configs(predictions):
    return window_configs(predictions)


def assert_matches_fresh_solve(scenario, hot, demand, bound):
    """``hot`` equals a fresh per-day LP over the same demand and bound."""
    fresh = JointAssignmentLp(scenario, demand, JointLpOptions(e2e_bound_ms=bound)).solve()
    assert hot.is_optimal and fresh.is_optimal
    assert abs(hot.objective - fresh.objective) <= 1e-9 * abs(fresh.objective)
    keys = set(hot.assignment) | set(fresh.assignment)
    deviation = max(abs(hot.assignment.get(k, 0.0) - fresh.assignment.get(k, 0.0)) for k in keys)
    assert deviation <= 1e-6


class TestHotStartMatchesFreshSolves:
    @pytest.mark.parametrize("name", ["emea", "americas", "global"])
    def test_zoo_plans_match_fresh_lps(self, name):
        setup = build_scenario(name, daily_calls=5_000, top_n_configs=40)
        demand = {day: predicted_demand_for_day(setup, day) for day in DAYS}
        cache = PlanCache(setup.scenario, window_configs(demand))
        for day in DAYS:
            bound = day_e2e_bound_ms(day)
            hot = cache.solve_day(demand[day], e2e_bound_ms=bound)
            assert_matches_fresh_solve(setup.scenario, hot, demand[day], bound)
        # Solved through the persistent session, not the linprog fallback.
        assert cache._prepared._session is not None

    def test_infeasible_day_reports_infeasible(self, small_setup, predictions, planning_configs):
        """An impossible E2E bound comes back as a status, not an
        exception, and the next day still lands on the fresh optimum."""
        cache = PlanCache(small_setup.scenario, planning_configs)
        assert not cache.solve_day(predictions[30], e2e_bound_ms=1e-3).is_optimal
        bound = day_e2e_bound_ms(31)
        hot = cache.solve_day(predictions[31], e2e_bound_ms=bound)
        assert_matches_fresh_solve(small_setup.scenario, hot, predictions[31], bound)


class TestSolveOrderIndependence:
    @pytest.mark.parametrize("name", ["emea", "global"])
    def test_forward_and_reversed_walks_agree(self, name):
        setup = build_scenario(name, daily_calls=5_000, top_n_configs=40)
        demand = {day: predicted_demand_for_day(setup, day) for day in DAYS}

        def walk(order):
            cache = PlanCache(setup.scenario, window_configs(demand))
            return {
                day: cache.solve_day(demand[day], e2e_bound_ms=day_e2e_bound_ms(day))
                for day in order
            }

        forward = walk(DAYS)
        backward = walk(list(reversed(DAYS)))
        for day in DAYS:
            assert forward[day].is_optimal
            assert forward[day].iterations > 0
            assert forward[day].assignment == backward[day].assignment
            assert forward[day].objective == backward[day].objective
            assert forward[day].iterations == backward[day].iterations


class TestSolveDaySafety:
    def test_rhs_restored_when_solve_raises(self, small_setup, predictions, planning_configs):
        cache = PlanCache(small_setup.scenario, planning_configs)
        healthy = cache.solve_day(predictions[30], e2e_bound_ms=day_e2e_bound_ms(30))
        c1_before = cache._artifacts.c1_block.rhs.copy()
        c4_before = float(cache._artifacts.c4_block.rhs[0])

        original = cache._prepared.solve
        cache._prepared.solve = lambda: (_ for _ in ()).throw(RuntimeError("solver died"))
        with pytest.raises(RuntimeError, match="solver died"):
            cache.solve_day(predictions[31], e2e_bound_ms=day_e2e_bound_ms(31))
        # The failed day must not leak into the cached RHS.
        assert np.array_equal(cache._artifacts.c1_block.rhs, c1_before)
        assert cache._artifacts.c4_block.rhs[0] == c4_before

        cache._prepared.solve = original
        again = cache.solve_day(predictions[30], e2e_bound_ms=day_e2e_bound_ms(30))
        assert again.objective == pytest.approx(healthy.objective, rel=1e-12)
        assert again.assignment == healthy.assignment

    def test_concurrent_solve_day_is_serialized_and_correct(
        self, small_setup, predictions, planning_configs
    ):
        """Hammer one cache from several threads: the internal lock must
        serialize the RHS-mutate + solve critical sections, and the
        unique-vertex contract makes every result equal the fresh
        single-threaded solve for its day, regardless of interleaving."""
        reference = {
            day: PlanCache(small_setup.scenario, planning_configs).solve_day(
                predictions[day], e2e_bound_ms=day_e2e_bound_ms(day)
            )
            for day in DAYS
        }
        cache = PlanCache(small_setup.scenario, planning_configs)
        results = {}
        errors = []

        def worker(order):
            try:
                for day in order:
                    results[(threading.get_ident(), day)] = (
                        day,
                        cache.solve_day(predictions[day], e2e_bound_ms=day_e2e_bound_ms(day)),
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(order,))
            for order in (DAYS, list(reversed(DAYS)))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 2 * len(DAYS)
        for day, solved in results.values():
            assert solved.is_optimal
            assert solved.objective == pytest.approx(reference[day].objective, rel=1e-9)
