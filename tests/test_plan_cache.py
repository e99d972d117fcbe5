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
  failed solve) and serialized (safe under concurrent callers);
* a right-hand side any cache over the scenario already solved is
  served from the scenario's plan memo, bit for bit, and any change to
  a C1–C4 right-hand side misses it.

The tests meant to exercise HiGHS on repeated inputs give each cache a
scenario of its own (:func:`own_scenario`), so the memo cannot serve
them, and check ``memo_hits == 0``.
"""

import gc
import pickle
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.core.scenario import PlanMemo
from repro.core.stress import campaign_scenarios, run_campaign_day
from repro.core.titan_next import (
    PlanCache,
    _SolvedPlan,
    day_e2e_bound_ms,
    predicted_demand_for_day,
)
from repro.scenarios import build_scenario
from repro.solver.model import Solution

DAYS = [30, 31, 32]


def window_configs(predictions):
    """The config union a sweep builds its one cache over."""
    return sorted({c for table in predictions.values() for _, c in table}, key=str)


def own_scenario(setup):
    """A copy of the setup's scenario, with a plan memo of its own."""
    scenario = setup.scenario
    return scenario.with_capacity_book(scenario.capacity_book)


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
            cache = PlanCache(own_scenario(setup), window_configs(demand))
            solved = {
                day: cache.solve_day(demand[day], e2e_bound_ms=day_e2e_bound_ms(day))
                for day in order
            }
            assert cache.memo_hits == 0
            return solved

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
        healthy = PlanCache(own_scenario(small_setup), planning_configs).solve_day(
            predictions[30], e2e_bound_ms=day_e2e_bound_ms(30)
        )
        cache = PlanCache(own_scenario(small_setup), planning_configs)
        cache.solve_day(predictions[32], e2e_bound_ms=day_e2e_bound_ms(32))
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
        assert cache.memo_hits == 0

    def test_concurrent_solve_day_is_serialized_and_correct(
        self, small_setup, predictions, planning_configs
    ):
        """Hammer one cache from several threads: the internal lock must
        serialize the RHS-mutate + solve critical sections, and the
        unique-vertex contract makes every result equal the fresh
        single-threaded solve for its day, regardless of interleaving.
        The second thread plans each day under a 5 ms looser bound, so
        no call repeats another's right-hand side and every one runs
        HiGHS."""
        bounds = {
            (day, thread): day_e2e_bound_ms(day) + 5.0 * thread
            for day in DAYS
            for thread in (0, 1)
        }
        reference_cache = PlanCache(own_scenario(small_setup), planning_configs)
        reference = {
            key: reference_cache.solve_day(predictions[key[0]], e2e_bound_ms=bound)
            for key, bound in bounds.items()
        }
        cache = PlanCache(own_scenario(small_setup), planning_configs)
        results = {}
        errors = []

        def worker(thread, order):
            try:
                for day in order:
                    results[(day, thread)] = cache.solve_day(
                        predictions[day], e2e_bound_ms=bounds[(day, thread)]
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(thread, order))
            for thread, order in enumerate((DAYS, list(reversed(DAYS))))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 2 * len(DAYS)
        for key, solved in results.items():
            assert solved.is_optimal
            assert solved.objective == pytest.approx(reference[key].objective, rel=1e-9)
        assert reference_cache.memo_hits == 0
        assert cache.memo_hits == 0


BATCH_FIELDS = ("initial_dc_idx", "initial_option_idx", "final_dc_idx", "final_option_idx")


class TestPlanMemo:
    def test_repeated_campaign_day_equals_a_fresh_scenario(
        self, small_setup, monkeypatch
    ):
        """A campaign day run twice on one scenario is served from the
        memo on its second run and matches a run on a fresh scenario bit
        for bit — including its infeasible rounds."""
        solves = []
        solve_day = PlanCache.solve_day

        def recording(cache, *args, **kwargs):
            result = solve_day(cache, *args, **kwargs)
            solves.append(
                (
                    cache.memo_hits,
                    result.status,
                    result.objective,
                    result.iterations,
                    result.assignment,
                    result.link_peaks,
                )
            )
            return result

        monkeypatch.setattr(PlanCache, "solve_day", recording)
        timeline = campaign_scenarios(small_setup)["demand-shock"]
        shared = replace(small_setup, scenario=own_scenario(small_setup))
        fresh_setup = replace(small_setup, scenario=own_scenario(small_setup))
        runs = []
        for setup in (shared, shared, fresh_setup):
            start = len(solves)
            result = run_campaign_day(setup, timeline, day=30)
            runs.append((result, solves[start:]))
        (first, first_solves), (repeat, repeat_solves), (fresh, fresh_solves) = runs

        assert [s[0] for s in first_solves + fresh_solves] == [0] * 2 * len(first_solves)
        assert [s[0] for s in repeat_solves] == list(range(1, len(repeat_solves) + 1))
        assert fresh.infeasible_rounds > 0
        for run, run_solves in ((first, first_solves), (repeat, repeat_solves)):
            assert pickle.dumps([s[1:] for s in run_solves]) == pickle.dumps(
                [s[1:] for s in fresh_solves]
            )
            assert run.replan_events == fresh.replan_events
            assert run.stats == fresh.stats
            assert run.overflow_calls == fresh.overflow_calls
            for name in BATCH_FIELDS:
                assert np.array_equal(getattr(run.batch, name), getattr(fresh.batch, name))

    @pytest.mark.parametrize("family", ["C1", "C2", "C3", "C4"])
    def test_changing_one_rhs_family_misses(
        self, small_setup, predictions, planning_configs, family
    ):
        cache = PlanCache(own_scenario(small_setup), planning_configs)
        demand, bound = predictions[30], day_e2e_bound_ms(30)
        solved = cache.solve_day(demand, e2e_bound_ms=bound)
        assert cache.solve_day(demand, e2e_bound_ms=bound).assignment == solved.assignment
        assert cache.memo_hits == 1
        dc = cache.scenario.dc_codes[0]
        if family == "C1":
            key = next(iter(demand))
            demand = {**demand, key: demand[key] + 1.0}
        elif family == "C2":
            cache.refresh_capacity_rhs(
                compute_factor=lambda slot, code: 0.99 if (slot, code) == (20, dc) else 1.0
            )
        elif family == "C3":
            cache.refresh_capacity_rhs(
                internet_factor=lambda slot, country, code: 0.5 if slot == 20 else 1.0
            )
        else:
            bound += 1.0
        changed = cache.solve_day(demand, e2e_bound_ms=bound)
        assert cache.memo_hits == 1
        assert changed.iterations > 0

    def test_memo_keeps_at_most_size_entries(self, small_setup, predictions, planning_configs):
        scenario = own_scenario(small_setup)
        cache = PlanCache(scenario, planning_configs)
        bounds = [day_e2e_bound_ms(30) + k for k in range(PlanMemo.SIZE + 2)]
        for bound in bounds:
            cache.solve_day(predictions[30], e2e_bound_ms=bound)
            assert len(scenario.plan_memo) <= PlanMemo.SIZE
        assert PlanMemo.SIZE == 16
        assert len(scenario.plan_memo) == PlanMemo.SIZE
        assert cache.memo_hits == 0
        cache.solve_day(predictions[30], e2e_bound_ms=bounds[-1])  # newest: served
        assert cache.memo_hits == 1
        cache.solve_day(predictions[30], e2e_bound_ms=bounds[0])  # oldest: evicted
        assert cache.memo_hits == 1

    def test_lru_evicts_the_least_recently_used(self):
        memo = PlanMemo()
        for key in range(PlanMemo.SIZE):
            memo.put(key, f"plan {key}")
        assert memo.get(0) == "plan 0"
        memo.put("new", "plan new")
        assert len(memo) == PlanMemo.SIZE
        assert memo.get(1) is None
        assert memo.get(0) == "plan 0"
        assert memo.get("new") == "plan new"

    def test_concurrent_use_stays_bounded_and_consistent(self):
        """Caches on several threads share one scenario's memo."""
        memo = PlanMemo()
        errors = []

        def worker(offset):
            try:
                for i in range(2_000):
                    key = (offset + i) % 40
                    memo.put(key, f"plan {key}")
                    entry = memo.get(key)
                    if entry is not None and entry != f"plan {key}":
                        errors.append((key, entry))
                    if len(memo) > PlanMemo.SIZE:
                        errors.append(len(memo))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(memo) == PlanMemo.SIZE

    def test_scenario_pickles_without_its_memo(self, small_setup, predictions, planning_configs):
        scenario = own_scenario(small_setup)
        cache = PlanCache(scenario, planning_configs)
        before = len(pickle.dumps(scenario))
        for day in DAYS:
            cache.solve_day(predictions[day], e2e_bound_ms=day_e2e_bound_ms(day))
        assert len(scenario.plan_memo) == len(DAYS)
        assert len(pickle.dumps(scenario)) == before
        assert len(pickle.loads(pickle.dumps(scenario)).plan_memo) == 0
        with pytest.raises(TypeError, match="PlanMemo"):
            pickle.dumps(scenario.plan_memo)

    def test_dropped_cache_is_collected_and_its_results_still_served(
        self, small_setup, predictions, planning_configs
    ):
        scenario = own_scenario(small_setup)
        cache = PlanCache(scenario, planning_configs)
        bound = day_e2e_bound_ms(30)
        solved = cache.solve_day(predictions[30], e2e_bound_ms=bound)
        dropped = weakref.ref(cache)
        del cache
        gc.collect()
        assert dropped() is None

        again = PlanCache(scenario, planning_configs)
        served = again.solve_day(predictions[30], e2e_bound_ms=bound)
        assert again.memo_hits == 1
        assert served.objective == solved.objective
        assert served.iterations == solved.iterations
        assert served.assignment == solved.assignment
        assert served.link_peaks == solved.link_peaks

    def test_stored_solution_is_bit_exact(self):
        x = np.array([0.0, -0.0, 1.5, 0.0, np.nan, 5e-324])
        stored = _SolvedPlan.of(Solution("optimal", 2.5, iterations=7, x=x))
        assert stored.index.tolist() == [1, 2, 4, 5]
        restored = stored.solution()
        assert restored.x.view(np.uint64).tolist() == x.view(np.uint64).tolist()
        assert (restored.status, restored.objective, restored.iterations) == ("optimal", 2.5, 7)
        infeasible = _SolvedPlan.of(Solution("infeasible", None, iterations=3)).solution()
        assert (infeasible.status, infeasible.objective, infeasible.x) == ("infeasible", None, None)
