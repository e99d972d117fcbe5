"""Equivalence tests: array-first LP assembly vs the scalar reference,
block-API backend agreement, and the multi-day PlanCache."""

from collections import Counter

import numpy as np
import pytest

from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.core.titan_next import PlanCache, oracle_demand_for_day
from repro.solver.model import LinearProgram, LinExpr
from repro.solver.simplex import solve_simplex


@pytest.fixture(scope="module")
def demand_day(small_setup):
    full = oracle_demand_for_day(small_setup, day=2)
    return {k: v for k, v in full.items() if k[0] < 8}


OPTION_SETS = [
    JointLpOptions(),
    JointLpOptions(allow_internet=False),
    JointLpOptions(objective="total_latency"),
    JointLpOptions(objective="total_e2e"),
    JointLpOptions(single_dc_per_config=True),
    JointLpOptions(internet_capacity_factor=2.0),
]


def _canonical_rows(lp):
    """The LP's rows as a multiset of (sense, columns, coefficients, RHS).

    Columns are sorted and duplicate entries of a row summed in entry
    order, as the scalar builder's ``add_term`` accumulates them.
    """
    rows = Counter()
    for cols, vals, sense, rhs in lp.iter_constraint_rows():
        summed = {}
        order = np.argsort(cols, kind="stable")
        for col, val in zip(cols[order].tolist(), vals[order].tolist()):
            summed[col] = summed.get(col, 0.0) + val
        rows[(sense, tuple(summed), tuple(summed.values()), float(rhs))] += 1
    return rows


class TestBuildEquivalence:
    @pytest.mark.parametrize(
        "options",
        OPTION_SETS,
        ids=lambda o: (
            f"{o.objective}-{o.allow_internet}-{o.single_dc_per_config}"
            f"-{o.internet_capacity_factor}"
        ),
    )
    def test_same_shape_and_objective_as_reference(self, small_setup, demand_day, options):
        """Row for row the same LP: exact coefficients, RHS, bounds and objective."""
        builder = JointAssignmentLp(small_setup.scenario, demand_day, options)
        ref_lp, ref_names = builder.build_reference()
        new_lp, new_names = builder.build()
        assert new_names == ref_names
        assert new_lp.num_constraints == ref_lp.num_constraints
        assert _canonical_rows(new_lp) == _canonical_rows(ref_lp)
        for new_bounds, ref_bounds in zip(new_lp.bounds_arrays(), ref_lp.bounds_arrays()):
            np.testing.assert_array_equal(new_bounds, ref_bounds)
        np.testing.assert_array_equal(new_lp.objective_vector(), ref_lp.objective_vector())

    def test_var_name_table_matches_reference(self, small_setup, demand_day):
        builder = JointAssignmentLp(small_setup.scenario, demand_day)
        _, ref_names = builder.build_reference()
        _, new_names = builder.build()
        assert new_names == ref_names

    def test_objective_vectors_identical(self, small_setup, demand_day):
        """Same column order → bit-identical objective coefficients."""
        builder = JointAssignmentLp(small_setup.scenario, demand_day)
        ref_lp, _ = builder.build_reference()
        new_lp, _ = builder.build()
        np.testing.assert_array_equal(ref_lp.objective_vector(), new_lp.objective_vector())


class TestBlockApi:
    def test_blocks_agree_with_scalar_constraints(self):
        # min x + 2y  s.t. x + y >= 4, x - y <= 1, x + 2y == 6.
        lp_scalar = LinearProgram()
        x = lp_scalar.add_variable("x")
        y = lp_scalar.add_variable("y")
        lp_scalar.add_constraint(x + y >= 4)
        lp_scalar.add_constraint(x - y <= 1)
        lp_scalar.add_constraint(x + 2 * y == 6)
        lp_scalar.set_objective(x + 2 * y)

        lp_blocks = LinearProgram()
        handles = lp_blocks.add_variables(2)
        lp_blocks.add_constraint_block([0, 0], handles, [1.0, 1.0], ">=", [4.0])
        lp_blocks.add_constraint_block([0, 0], handles, [1.0, -1.0], "<=", [1.0])
        lp_blocks.add_constraint_block([0, 0], handles, [1.0, 2.0], "==", [6.0])
        c = np.array([1.0, 2.0])
        lp_blocks.set_objective_array(c)

        for solve in (solve_simplex, LinearProgram.solve):
            a = solve(lp_scalar)
            b = solve(lp_blocks)
            assert a.status == b.status == "optimal"
            assert a.objective == pytest.approx(b.objective, rel=1e-6, abs=1e-6)

    def test_duplicate_coo_entries_accumulate(self):
        lp = LinearProgram()
        handles = lp.add_variables(1)
        # 0.5x + 0.5x >= 3  ==  x >= 3.
        lp.add_constraint_block([0, 0], [0, 0], [0.5, 0.5], ">=", [3.0])
        lp.set_objective_array(np.ones(1))
        for solve in (solve_simplex, LinearProgram.solve):
            assert solve(lp).objective == pytest.approx(3.0)

    def test_block_validation(self):
        lp = LinearProgram()
        lp.add_variables(2)
        with pytest.raises(ValueError):
            lp.add_constraint_block([0], [5], [1.0], "<=", [1.0])  # col out of range
        with pytest.raises(ValueError):
            lp.add_constraint_block([2], [0], [1.0], "<=", [1.0])  # row out of range
        with pytest.raises(ValueError):
            lp.add_constraint_block([0], [0], [1.0], "<", [1.0])  # bad sense

    def test_lazy_names_and_values(self):
        lp = LinearProgram()
        handles = lp.add_variables(2, namer=lambda i: f"q[{i}]")
        lp.add_constraint_block([0, 0], handles, [1.0, 1.0], ">=", [2.0])
        lp.set_objective_array(np.array([1.0, 3.0]))
        solution = lp.solve()
        assert lp.variable_name(1) == "q[1]"
        assert solution.value_at(0) == pytest.approx(2.0)
        assert solution["q[0]"] == pytest.approx(2.0)

    def test_mixed_scalar_and_batch_variables(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        handles = lp.add_variables(2, namer=lambda i: f"b[{i}]")
        expr = LinExpr()
        expr.add_term(x).add_terms(handles, [1.0, 1.0])
        lp.add_constraint(expr >= 6)
        c = np.array([1.0, 2.0, 3.0])
        lp.set_objective_array(c)
        solution = lp.solve()
        assert solution.objective == pytest.approx(6.0)
        assert solution[x] == pytest.approx(6.0)


class TestPlanCache:
    def test_cached_solves_match_fresh_builds(self, small_setup):
        days = [2, 3]
        cache = PlanCache(small_setup)
        demands = {day: oracle_demand_for_day(small_setup, day) for day in days}
        for day in days:
            bound = 80.0 if day % 7 >= 5 else 75.0
            cached = cache.solve_day(demands[day], e2e_bound_ms=bound)
            fresh = JointAssignmentLp(
                small_setup.scenario, demands[day], JointLpOptions(e2e_bound_ms=bound)
            ).solve()
            assert cached.is_optimal and fresh.is_optimal
            assert cached.objective == pytest.approx(fresh.objective, rel=1e-6, abs=1e-6)
            assert cached.sum_of_peaks() == pytest.approx(fresh.sum_of_peaks(), rel=1e-5, abs=1e-6)

    def test_cache_reuses_structure(self, small_setup):
        days = [2, 3, 4]
        cache = PlanCache(small_setup)
        n_vars, n_cons = cache.num_variables, cache.num_constraints
        for day in days:
            cache.solve_day(oracle_demand_for_day(small_setup, day))
        assert cache.solves == 3
        assert cache.num_variables == n_vars
        assert cache.num_constraints == n_cons

    def test_unknown_demand_key_rejected(self, small_setup):
        """The cache covers the setup's reduced configs over one day's
        slots; a raw config or a slot past the day is not in it."""
        raw = oracle_demand_for_day(small_setup, day=2, reduced=False)
        outside = next(c for _, c in raw if c.reduced() != c)
        inside = outside.reduced()
        cache = small_setup.plan_cache()
        with pytest.raises(KeyError):
            cache.solve_day({(0, outside): 5.0})
        with pytest.raises(KeyError):
            cache.solve_day({(small_setup.scenario.slots_per_day, inside): 5.0})
