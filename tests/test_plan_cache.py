"""PlanCache: the one planning LP every Titan-Next day plan solves through.

A cache keeps one HiGHS model loaded over the setup's reduced config set
and solves each day from the slack basis, with presolve off.  Pins these
contracts:

* cached ≡ fresh solve — across the scenario zoo, each day's plan from
  one ``PlanCache`` walked in day order equals a fresh per-day
  ``JointAssignmentLp`` solve (``linprog`` with presolve), because the
  tie-break perturbation makes every day's optimum a unique vertex;
* solve order does not matter — no basis crosses solves, so a cache
  walked forward and one walked backward return identical plans,
  objectives and iteration counts;
* ``PlanCache.solve_day`` is exception-safe (no stale RHS after a
  failed solve) and serialized (safe under concurrent callers);
* a right-hand side the cache already solved is served from its memo,
  bit for bit, and any change to a C1–C4 right-hand side misses it;
* a horizon solve (``solve_day(..., from_slot=s)``, an intraday replan
  round) reaches the vertex of a full-day solve of the same remaining
  demand, reloads leak nothing between horizons, and a change confined
  to the free rows of earlier slots is a memo hit;
* an estimate matrix folds into the same C1 counts as its demand
  table, bit for bit, and a result's lazily built assignment table is
  the eagerly built one.

The session's ``small_setup`` keeps its cache (and memo) across tests,
so tests that count solves or memo hits plan on a cold copy
(``dataclasses.replace(setup)``, which builds a cache of its own) or on
a ``PlanCache`` built for the test.
"""

import gc
import pickle
import re
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core.forecast import HoltWinters
from repro.core.lp import JointAssignmentLp, JointLpOptions, extract_result
from repro.core.stress import campaign_scenarios, run_campaign_day
from repro.core.titan_next import (
    HISTORY_WEEKS,
    PlanCache,
    _SolvedPlan,
    _table_from_matrix,
    day_e2e_bound_ms,
    predicted_demand_for_day,
)
from repro.scenarios import build_scenario
from repro.solver.model import Solution
from repro.workload.demand import SLOTS_PER_DAY

DAYS = [30, 31, 32]


@pytest.fixture(scope="module")
def predictions(small_setup):
    return {day: predicted_demand_for_day(small_setup, day) for day in DAYS}


@pytest.fixture(scope="module")
def one_slot(predictions):
    """Day 30's demand in slot 20 only: a cheap, distinct right-hand side."""
    return {key: value for key, value in predictions[30].items() if key[0] == 20}


def assert_matches_fresh_solve(scenario, hot, demand, bound):
    """``hot`` equals a fresh per-day LP over the same demand and bound."""
    fresh = JointAssignmentLp(scenario, demand, JointLpOptions(e2e_bound_ms=bound)).solve()
    assert hot.is_optimal and fresh.is_optimal
    assert abs(hot.objective - fresh.objective) <= 1e-9 * abs(fresh.objective)
    keys = set(hot.assignment) | set(fresh.assignment)
    deviation = max(abs(hot.assignment.get(k, 0.0) - fresh.assignment.get(k, 0.0)) for k in keys)
    assert deviation <= 1e-6


def solved_fields(result):
    """Everything a solve returns, for bit-for-bit comparisons."""
    return pickle.dumps(
        (result.status, result.objective, result.iterations, result.assignment, result.link_peaks)
    )


class TestHotStartMatchesFreshSolves:
    @pytest.mark.parametrize("name", ["emea", "americas", "global"])
    def test_zoo_plans_match_fresh_lps(self, name):
        setup = build_scenario(name, daily_calls=5_000, top_n_configs=40)
        demand = {day: predicted_demand_for_day(setup, day) for day in DAYS}
        cache = setup.plan_cache()
        for day in DAYS:
            bound = day_e2e_bound_ms(day)
            hot = cache.solve_day(demand[day], e2e_bound_ms=bound)
            assert_matches_fresh_solve(setup.scenario, hot, demand[day], bound)
        # Solved through the persistent session, not the linprog fallback.
        assert cache._prepared._session is not None

    def test_infeasible_day_reports_infeasible(self, small_setup, predictions):
        """An impossible E2E bound comes back as a status, not an
        exception, and the next day still lands on the fresh optimum."""
        cache = PlanCache(small_setup)
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
            cache = PlanCache(setup)
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


HORIZONS = (1, 8, 24, 47)


def horizon_rounds(setup, demand, from_slot):
    """``label -> (demand, capacity)`` of the rounds a horizon test
    solves from ``from_slot``: the remaining demand as is, under a cut
    and a compute outage, and with an impossible spike in the last slot."""
    remaining = {key: value for key, value in demand.items() if key[0] >= from_slot}
    dc = setup.scenario.dc_codes[0]
    cut = (lambda slot, country, code: 0.3, lambda slot, code: 0.5 if code == dc else 1.0)
    last = setup.scenario.slots_per_day - 1
    spike = next(key for key in remaining if key[0] == last)
    impossible = {**remaining, spike: 100.0 * sum(remaining.values())}
    return {
        "plain": (remaining, None),
        "capacity": (remaining, cut),
        "impossible": (impossible, None),
    }


def assert_same_vertex(horizon, full):
    assert horizon.status == full.status
    if full.is_optimal:
        assert abs(horizon.objective - full.objective) <= 1e-12 * abs(full.objective)
        assert set(horizon.assignment) == set(full.assignment)
        for key, value in full.assignment.items():
            assert abs(horizon.assignment[key] - value) <= 1e-12


class TestHorizonSolves:
    @pytest.mark.parametrize("name", ["europe", "emea", "global"])
    def test_horizon_equals_a_full_day_solve_of_the_remaining_demand(
        self, small_setup, name
    ):
        """One cache walks every horizon (so each round reloads another
        column suffix); each round lands on the vertex of a fresh
        cache's full-day solve of the same demand.  The dual simplex
        path is nearly the same, not always identical: HiGHS's pivots
        also depend on the dropped columns' entries in the earlier
        slots' rows, though those columns never enter.  Here the
        iterations agree on every zoo round but one (39 against 40) and
        differ by up to 5 on Europe."""
        if name == "europe":
            setup = small_setup
        else:
            setup = build_scenario(name, daily_calls=5_000, top_n_configs=40)
        demand = predicted_demand_for_day(setup, 30)
        bound = day_e2e_bound_ms(30)
        cache = PlanCache(setup)
        for from_slot in HORIZONS:
            for label, (planned, capacity) in horizon_rounds(setup, demand, from_slot).items():
                horizon = cache.solve_day(
                    planned, e2e_bound_ms=bound, capacity=capacity, from_slot=from_slot
                )
                full = PlanCache(setup).solve_day(planned, e2e_bound_ms=bound, capacity=capacity)
                assert horizon.is_optimal == (label != "impossible")
                assert min(key[0] for key in horizon.assignment or [(from_slot,)]) >= from_slot
                assert_same_vertex(horizon, full)
                gap = abs(horizon.iterations - full.iterations)
                assert gap <= max(1, 0.01 * full.iterations)
        assert cache.memo_hits == 0
        assert cache._prepared.in_session

    def test_reloads_leak_nothing_between_horizons(self, small_setup, predictions):
        """Horizons 0 → 24 → 0 → 40 in one cache (one session, a reload
        each time) equal a fresh cache per solve, bit for bit."""
        rounds = [
            (0, predictions[30]),
            (24, predictions[31]),
            (0, predictions[32]),
            (40, predictions[30]),
        ]
        cache = PlanCache(small_setup)
        for from_slot, demand in rounds:
            remaining = {key: value for key, value in demand.items() if key[0] >= from_slot}
            shared = cache.solve_day(remaining, from_slot=from_slot)
            fresh = PlanCache(small_setup).solve_day(remaining, from_slot=from_slot)
            assert shared.is_optimal
            assert solved_fields(shared) == solved_fields(fresh)
            assert cache.horizon_columns(from_slot) == cache._prepared._session[0].getNumCol()
        assert cache.memo_hits == 0

    def test_past_capacity_change_is_a_memo_hit(self, small_setup, predictions):
        """Capacity factors on slots before the horizon touch only free
        rows: the round is the earlier one, served from the memo.  The
        same factors inside the horizon miss."""
        cache = PlanCache(small_setup)
        remaining = {key: value for key, value in predictions[30].items() if key[0] >= 24}
        solved = cache.solve_day(remaining, from_slot=24)
        for factor in (0.0, 0.5):
            ended = (
                lambda slot, country, dc: factor if slot < 24 else 1.0,
                lambda slot, dc: factor if slot < 24 else 1.0,
            )
            again = cache.solve_day(remaining, capacity=ended, from_slot=24)
            assert solved_fields(again) == solved_fields(solved)
        assert cache.memo_hits == 2
        ongoing = (None, lambda slot, dc: 0.5 if slot < 25 else 1.0)
        changed = cache.solve_day(remaining, capacity=ongoing, from_slot=24)
        assert cache.memo_hits == 2
        assert changed.iterations > 0
        # The same demand planned from another slot is another LP.
        cache.solve_day(remaining, from_slot=23)
        assert cache.memo_hits == 2

    def test_linprog_fallback_solves_the_same_horizon(
        self, small_setup, predictions, monkeypatch
    ):
        """Without the bindings, a horizon solve runs through linprog
        over the same column suffix, leaving the free rows out."""
        import repro.solver.scipy_backend as backend

        remaining = {key: value for key, value in predictions[30].items() if key[0] >= 24}
        session = PlanCache(small_setup).solve_day(remaining, from_slot=24)
        monkeypatch.setattr(backend, "_highs_core", lambda: None)
        cache = PlanCache(small_setup)
        fallback = cache.solve_day(remaining, from_slot=24)
        assert not cache._prepared.in_session and not cache._memo
        assert fallback.is_optimal
        assert abs(fallback.objective - session.objective) <= 1e-9 * abs(session.objective)
        keys = set(session.assignment) | set(fallback.assignment)
        assert min(key[0] for key in keys) >= 24
        for key in keys:
            assert abs(fallback.assignment.get(key, 0.0) - session.assignment.get(key, 0.0)) <= 1e-6

    @pytest.mark.parametrize("from_slot", [-1, 48, 100])
    def test_from_slot_outside_the_day_raises(self, small_setup, from_slot):
        cache = small_setup.plan_cache()
        solves = cache.solves
        with pytest.raises(ValueError, match=f"from_slot {from_slot} is outside"):
            cache.solve_day({}, from_slot=from_slot)
        assert cache.solves == solves

    def test_demand_before_the_horizon_raises(self, small_setup, one_slot):
        """``one_slot`` is all in slot 20: planning it from slot 21
        would free its C1 rows and drop every call."""
        cache = PlanCache(small_setup)
        first = next(iter(one_slot))
        with pytest.raises(ValueError, match=re.escape(f"demand key {first!r}")):
            cache.solve_day(one_slot, from_slot=21)
        assert cache.solves == 0
        assert cache.solve_day(one_slot, from_slot=20).is_optimal
        # Entries of no calls drop nothing, so they pass.
        zeros = {(10, key[1]): 0.0 for key in one_slot}
        assert cache.solve_day({**one_slot, **zeros}, from_slot=20).is_optimal
        assert cache.memo_hits == 1

    def test_horizon_columns_are_a_shrinking_suffix(self, small_setup):
        cache = small_setup.plan_cache()
        artifacts = cache._artifacts
        n_y = artifacts.n_links
        assert cache.horizon_columns(0) == cache.num_variables
        for from_slot in range(small_setup.scenario.slots_per_day):
            columns = cache.horizon_columns(from_slot)
            kept = artifacts.col_t >= from_slot
            assert columns == int(kept.sum()) + n_y
            assert kept[artifacts.n_cols - (columns - n_y) :].all()
        assert cache.horizon_columns(47) < cache.horizon_columns(46)


class TestSolveDaySafety:
    def test_rhs_restored_when_solve_raises(self, small_setup, predictions):
        healthy = PlanCache(small_setup).solve_day(
            predictions[30], e2e_bound_ms=day_e2e_bound_ms(30)
        )
        cache = PlanCache(small_setup)
        cache.solve_day(predictions[32], e2e_bound_ms=day_e2e_bound_ms(32))
        before = [block.rhs.copy() for block in cache._rhs_blocks]
        assert len(before) == 4  # C1, C2, C3, C4

        original = cache._prepared.solve
        cache._prepared.solve = lambda *args: (_ for _ in ()).throw(RuntimeError("solver died"))
        outage = (lambda slot, country, dc: 0.0, lambda slot, dc: 0.5)
        with pytest.raises(RuntimeError, match="solver died"):
            cache.solve_day(predictions[31], e2e_bound_ms=day_e2e_bound_ms(31), capacity=outage)
        # The failed day must not leak into the cached RHS.
        for block, rhs in zip(cache._rhs_blocks, before):
            assert np.array_equal(block.rhs, rhs)

        cache._prepared.solve = original
        again = cache.solve_day(predictions[30], e2e_bound_ms=day_e2e_bound_ms(30))
        assert again.objective == pytest.approx(healthy.objective, rel=1e-12)
        assert again.assignment == healthy.assignment
        assert cache.memo_hits == 0

    def test_concurrent_solve_day_is_serialized_and_correct(self, small_setup, predictions):
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
        reference_cache = PlanCache(small_setup)
        reference = {
            key: reference_cache.solve_day(predictions[key[0]], e2e_bound_ms=bound)
            for key, bound in bounds.items()
        }
        cache = PlanCache(small_setup)
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
    def test_repeated_campaign_day_equals_a_fresh_scenario(self, small_setup, monkeypatch):
        """A campaign day run twice on one setup is served from the
        cache's memo on its second run and matches a run on a fresh
        setup copy bit for bit — including its infeasible rounds."""
        solves = []
        solve_day = PlanCache.solve_day

        def recording(cache, *args, **kwargs):
            result = solve_day(cache, *args, **kwargs)
            solves.append((cache.memo_hits, solved_fields(result)))
            return result

        monkeypatch.setattr(PlanCache, "solve_day", recording)
        timeline = campaign_scenarios(small_setup)["demand-shock"]
        shared = replace(small_setup)
        runs = []
        for setup in (shared, shared, replace(small_setup)):
            start = len(solves)
            result = run_campaign_day(setup, timeline, day=30)
            runs.append((result, solves[start:]))
        (first, first_solves), (repeat, repeat_solves), (fresh, fresh_solves) = runs

        assert [s[0] for s in first_solves + fresh_solves] == [0] * 2 * len(first_solves)
        assert [s[0] for s in repeat_solves] == list(range(1, len(repeat_solves) + 1))
        assert fresh.infeasible_rounds > 0
        for run, run_solves in ((first, first_solves), (repeat, repeat_solves)):
            assert [s[1] for s in run_solves] == [s[1] for s in fresh_solves]
            assert run.replan_events == fresh.replan_events
            assert run.stats == fresh.stats
            assert run.overflow_calls == fresh.overflow_calls
            for name in BATCH_FIELDS:
                assert np.array_equal(getattr(run.batch, name), getattr(fresh.batch, name))

    @pytest.mark.parametrize("family", ["C1", "C2", "C3", "C4"])
    def test_changing_one_rhs_family_misses(self, small_setup, predictions, family):
        cache = PlanCache(small_setup)
        demand, bound, capacity = predictions[30], day_e2e_bound_ms(30), None
        solved = cache.solve_day(demand, e2e_bound_ms=bound)
        assert cache.solve_day(demand, e2e_bound_ms=bound).assignment == solved.assignment
        assert cache.memo_hits == 1
        dc = cache.scenario.dc_codes[0]
        if family == "C1":
            key = next(iter(demand))
            demand = {**demand, key: demand[key] + 1.0}
        elif family == "C2":
            capacity = (None, lambda slot, code: 0.99 if (slot, code) == (20, dc) else 1.0)
        elif family == "C3":
            capacity = (lambda slot, country, code: 0.5 if slot == 20 else 1.0, None)
        else:
            bound += 1.0
        changed = cache.solve_day(demand, e2e_bound_ms=bound, capacity=capacity)
        assert cache.memo_hits == 1
        assert changed.iterations > 0

    def test_memo_keeps_at_most_size_entries(self, small_setup, one_slot):
        cache = PlanCache(small_setup)
        bounds = [day_e2e_bound_ms(30) + k for k in range(PlanCache.MEMO_SIZE + 2)]
        for bound in bounds:
            cache.solve_day(one_slot, e2e_bound_ms=bound)
            assert len(cache._memo) <= PlanCache.MEMO_SIZE
        assert PlanCache.MEMO_SIZE == 16
        assert len(cache._memo) == PlanCache.MEMO_SIZE
        assert cache.memo_hits == 0
        cache.solve_day(one_slot, e2e_bound_ms=bounds[-1])  # newest: served
        assert cache.memo_hits == 1
        cache.solve_day(one_slot, e2e_bound_ms=bounds[0])  # oldest: evicted
        assert cache.memo_hits == 1

    def test_lru_evicts_the_least_recently_used(self, small_setup, one_slot):
        cache = PlanCache(small_setup)
        bounds = [day_e2e_bound_ms(30) + k for k in range(PlanCache.MEMO_SIZE + 1)]
        for bound in bounds[:-1]:
            cache.solve_day(one_slot, e2e_bound_ms=bound)
        cache.solve_day(one_slot, e2e_bound_ms=bounds[0])  # a hit refreshes the oldest
        assert cache.memo_hits == 1
        cache.solve_day(one_slot, e2e_bound_ms=bounds[-1])  # evicts bounds[1]
        assert len(cache._memo) == PlanCache.MEMO_SIZE
        cache.solve_day(one_slot, e2e_bound_ms=bounds[0])
        cache.solve_day(one_slot, e2e_bound_ms=bounds[-1])
        assert cache.memo_hits == 3
        cache.solve_day(one_slot, e2e_bound_ms=bounds[1])
        assert cache.memo_hits == 3

    def test_concurrent_use_stays_bounded_and_consistent(self, small_setup, one_slot):
        """Threads cycling through more right-hand sides than the memo
        holds, each asking for every bound twice in a row: every result
        is the single-threaded one for its bound, bit for bit, whether
        HiGHS or the memo served it, and the memo never outgrows its
        bound.  A thread's repeat finds its own entry still recent, so
        at least half the calls are hits."""
        bounds = [day_e2e_bound_ms(30) + k for k in range(PlanCache.MEMO_SIZE + 4)]
        reference_cache = PlanCache(small_setup)
        reference = {
            bound: solved_fields(reference_cache.solve_day(one_slot, e2e_bound_ms=bound))
            for bound in bounds
        }
        cache = PlanCache(small_setup)
        errors = []

        def worker(offset):
            try:
                for i in range(2 * len(bounds)):
                    bound = bounds[(offset + i // 2) % len(bounds)]
                    solved = cache.solve_day(one_slot, e2e_bound_ms=bound)
                    if solved_fields(solved) != reference[bound]:
                        errors.append(bound)
                    if len(cache._memo) > PlanCache.MEMO_SIZE:
                        errors.append(len(cache._memo))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(cache._memo) == PlanCache.MEMO_SIZE
        assert cache.solves == 4 * 2 * len(bounds)
        assert 4 * len(bounds) <= cache.memo_hits < cache.solves

    def test_setup_pickles_without_its_plan_cache(self, small_setup, predictions):
        setup = replace(small_setup)
        before = len(pickle.dumps(setup))
        cache = setup.plan_cache()
        assert setup.plan_cache() is cache
        for day in DAYS:
            cache.solve_day(predictions[day], e2e_bound_ms=day_e2e_bound_ms(day))
        assert len(cache._memo) == len(DAYS)
        assert len(pickle.dumps(setup)) == before
        clone = pickle.loads(pickle.dumps(setup))
        assert clone._lp_cache is None
        assert setup.plan_cache() is cache
        with pytest.raises(TypeError, match="PlanCache"):
            pickle.dumps(cache)

    def test_dropped_cache_is_collected_and_a_fresh_one_solves_alike(
        self, small_setup, predictions
    ):
        """The memo holds plain arrays, never the LP, so a dropped
        setup copy frees its cache; a cache built afresh re-solves the
        same right-hand side bit for bit."""
        setup = replace(small_setup)
        bound = day_e2e_bound_ms(30)
        solved = setup.plan_cache().solve_day(predictions[30], e2e_bound_ms=bound)
        dropped = weakref.ref(setup.plan_cache())
        del setup
        gc.collect()
        assert dropped() is None

        again = PlanCache(small_setup)
        resolved = again.solve_day(predictions[30], e2e_bound_ms=bound)
        assert again.memo_hits == 0
        assert solved_fields(resolved) == solved_fields(solved)

    def test_stored_solution_is_bit_exact(self):
        x = np.array([0.0, -0.0, 1.5, 0.0, np.nan, 5e-324])
        stored = _SolvedPlan.of(Solution("optimal", 2.5, iterations=7, x=x))
        assert stored.index.tolist() == [1, 2, 4, 5]
        restored = stored.solution()
        assert restored.x.view(np.uint64).tolist() == x.view(np.uint64).tolist()
        assert (restored.status, restored.objective, restored.iterations) == ("optimal", 2.5, 7)
        infeasible = _SolvedPlan.of(Solution("infeasible", None, iterations=3)).solution()
        assert (infeasible.status, infeasible.objective, infeasible.x) == ("infeasible", None, None)


def estimate_matrices(setup, day):
    """Day ``day``'s (raw configs, slots) matrices of every kind a plan
    reads: expected counts, sampled counts, the Holt-Winters forecast
    (clipped at 0), a signed matrix (the forecast minus each row's
    mean), and the sampled counts with every third row zeroed."""
    top_n = setup.top_n_configs
    start = day * SLOTS_PER_DAY
    expected = setup.demand.expected_matrix(start, SLOTS_PER_DAY, top_n=top_n)
    sampled = setup.demand.counts_matrix(start, SLOTS_PER_DAY, top_n=top_n)
    history_slots = HISTORY_WEEKS * 7 * SLOTS_PER_DAY
    history = setup.demand.counts_matrix(start - history_slots, history_slots, top_n=top_n)
    keep = history.max(axis=1) > 0
    forecast = np.zeros(expected.shape)
    model = HoltWinters(alpha=0.3, beta=0.01, gamma=0.3)
    forecast[keep] = model.fit_many(history[keep].astype(float)).forecast(SLOTS_PER_DAY)
    zero_rows = sampled.copy()
    zero_rows[::3] = 0
    return {
        "expected": expected,
        "sampled": sampled,
        "forecast": forecast,
        "signed": forecast - forecast.mean(axis=1, keepdims=True),
        "zero-rows": zero_rows,
    }


class TestEstimateMatrices:
    """``solve_day``'s matrix form: the estimate matrix folds straight
    into the C1 counts, with no demand table in between."""

    @pytest.mark.parametrize("name", ["europe", "emea"])
    def test_matrix_counts_equal_the_table_counts(self, small_setup, name):
        if name == "europe":
            setup = small_setup
        else:
            setup = build_scenario(name, daily_calls=5_000, top_n_configs=40)
        top = setup.universe.top(setup.top_n_configs)
        raw_configs = [item.config for item in top]
        # Raw configs share reduced groups, with factors above 1.
        members = {}
        for config in raw_configs:
            members.setdefault(config.reduced(), []).append(config.reduction_factor())
        assert any(len(f) > 1 and max(f) > 1 for f in members.values())
        cache = PlanCache(setup)
        matrices = estimate_matrices(setup, 30)
        assert (matrices["signed"] < 0).any()
        for label, matrix in matrices.items():
            table = _table_from_matrix(matrix, raw_configs, True)
            for from_slot in (0, 1, 24, 47):
                remaining = {k: v for k, v in table.items() if k[0] >= from_slot and v > 0}
                zeroed = matrix.copy()
                zeroed[:, :from_slot] = 0
                folded = cache.estimate_counts(zeroed, from_slot)
                reference = cache.demand_counts(remaining, from_slot)
                assert folded.tobytes() == reference.tobytes(), (label, from_slot)

    def test_positive_demand_before_the_horizon_raises(self, small_setup):
        cache = PlanCache(small_setup)
        raw_configs = [item.config for item in small_setup.universe.top(small_setup.top_n_configs)]
        matrix = estimate_matrices(small_setup, 30)["expected"]
        table = _table_from_matrix(matrix, raw_configs, True)
        for demand in (matrix, table):
            with pytest.raises(ValueError, match="before the horizon's first slot 24"):
                cache.solve_day(demand, from_slot=24)
        assert cache.solves == 0
        # Non-positive sums before the horizon are no demand.
        signed = matrix.copy()
        signed[:, :24] = -1.0
        assert cache.estimate_counts(signed, 24)[: 24 * len(cache._artifacts.configs)].sum() == 0

    def test_matrix_of_another_shape_raises(self, small_setup):
        cache = PlanCache(small_setup)
        matrix = estimate_matrices(small_setup, 30)["expected"]
        for bad in (matrix[1:], matrix[:, 1:], matrix[0]):
            with pytest.raises(ValueError, match="estimate matrix has shape"):
                cache.solve_day(bad)
        assert cache.solves == 0

    def test_matrix_and_table_solve_alike(self, small_setup):
        raw_configs = [item.config for item in small_setup.universe.top(small_setup.top_n_configs)]
        matrix = estimate_matrices(small_setup, 30)["expected"]
        table = _table_from_matrix(matrix, raw_configs, True)
        cache = PlanCache(small_setup)
        from_table = cache.solve_day(table, e2e_bound_ms=day_e2e_bound_ms(30))
        from_matrix = cache.solve_day(matrix, e2e_bound_ms=day_e2e_bound_ms(30))
        assert cache.memo_hits == 1
        assert solved_fields(from_matrix) == solved_fields(from_table)

    def test_horizon_is_computed_once_per_slot(self, small_setup):
        cache = PlanCache(small_setup)
        first, free = cache._horizon(24)
        assert cache._horizon(24)[1] is free
        assert first == cache.first_column(24)
        assert not free.flags.writeable


def eager_assignment(solution, artifacts):
    """The assignment table as extraction used to build it up front."""
    values = solution.x[: artifacts.n_cols]
    return {artifacts.key_of(j): float(values[j]) for j in np.nonzero(values > 1e-9)[0]}


class TestLazyAssignment:
    def test_cached_solve_builds_the_eager_table(self, small_setup, predictions):
        cache = PlanCache(small_setup)
        result = cache.solve_day(predictions[30], e2e_bound_ms=day_e2e_bound_ms(30))
        solution = next(reversed(cache._memo.values())).solution()
        assert result.x.tobytes() == solution.x[: cache.x_columns].tobytes()
        eager = eager_assignment(solution, cache._artifacts)
        assert list(result.assignment.items()) == list(eager.items())
        assert result.assignment is result.assignment

    def test_one_shot_lp_builds_the_eager_table(self, small_setup, predictions):
        lp, artifacts = JointAssignmentLp(small_setup.scenario, predictions[31])._build()
        solution = lp.solve()
        result = extract_result(solution, artifacts)
        assert result.is_optimal
        eager = eager_assignment(solution, artifacts)
        assert list(result.assignment.items()) == list(eager.items())

    def test_failed_solve_has_no_columns(self, small_setup, predictions):
        result = PlanCache(small_setup).solve_day(predictions[30], e2e_bound_ms=1e-3)
        assert not result.is_optimal
        assert result.x is None and result.assignment == {}
