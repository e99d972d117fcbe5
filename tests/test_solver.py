"""Tests for the LP modeling layer and both solver backends."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.model import EQ, GE, LE, Constraint, LinearProgram, LinExpr
from repro.solver.simplex import solve_simplex


def _both(lp):
    """Solve with HiGHS and the simplex oracle; assert they agree; return HiGHS's."""
    simplex = solve_simplex(lp)
    highs = lp.solve()
    assert simplex.status == highs.status
    if simplex.is_optimal:
        assert simplex.objective == pytest.approx(highs.objective, rel=1e-6, abs=1e-6)
    return highs


class TestModeling:
    def test_expression_arithmetic(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        expr = 2 * x + 3 * y - 1 + x
        assert expr.coeffs[x.index] == 3.0
        assert expr.coeffs[y.index] == 3.0
        assert expr.constant == -1.0

    def test_rsub(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        expr = 5 - x
        assert expr.constant == 5.0
        assert expr.coeffs[x.index] == -1.0

    def test_add_term_in_place(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        expr = LinExpr()
        expr.add_term(x, 2.0).add_term(x, 3.0)
        assert expr.coeffs[x.index] == 5.0

    def test_constraint_senses(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        assert (x <= 3).sense == LE
        assert (x >= 3).sense == GE
        assert (x == 3).sense == EQ

    def test_constraint_rhs_normalization(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        c = x + 2 <= 5
        assert c.rhs == 3.0

    def test_duplicate_variable_name(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError):
            lp.add_variable("x")

    def test_bad_bounds(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_variable("x", lower=5.0, upper=1.0)

    def test_invalid_sense(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        with pytest.raises(ValueError):
            Constraint(x._expr(), "<")

    def test_non_numeric_scale_rejected(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        with pytest.raises(TypeError):
            x._expr() * x  # type: ignore[operator]


class TestSolving:
    def test_textbook_maximization(self):
        # max 3x + 2y s.t. x+y<=4, x+3y<=6 -> (4, 0), value 12.
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint(x + y <= 4)
        lp.add_constraint(x + 3 * y <= 6)
        lp.set_objective(-3 * x - 2 * y)
        solution = _both(lp)
        assert solution.objective == pytest.approx(-12.0)
        assert solution["x"] == pytest.approx(4.0)

    def test_equality_with_shifted_lower_bound(self):
        lp = LinearProgram()
        u = lp.add_variable("u", lower=1.0, upper=3.0)
        v = lp.add_variable("v")
        lp.add_constraint(u + v == 5)
        lp.set_objective(2 * u + v)
        solution = _both(lp)
        assert solution.objective == pytest.approx(6.0)
        assert solution["u"] == pytest.approx(1.0)

    def test_infeasible(self):
        lp = LinearProgram()
        a = lp.add_variable("a")
        lp.add_constraint(a <= 1)
        lp.add_constraint(a >= 2)
        lp.set_objective(a._expr())
        assert _both(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram()
        w = lp.add_variable("w")
        lp.add_constraint(w >= 0)
        lp.set_objective(-1 * w)
        assert _both(lp).status == "unbounded"

    def test_upper_bound_prevents_unboundedness(self):
        lp = LinearProgram()
        w = lp.add_variable("w", upper=7.0)
        lp.add_constraint(w >= 0)
        lp.set_objective(-1 * w)
        solution = _both(lp)
        assert solution.objective == pytest.approx(-7.0)

    def test_degenerate_constraints(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_constraint(x <= 5)
        lp.add_constraint(x <= 5)
        lp.add_constraint(x <= 10)
        lp.set_objective(-1 * x)
        assert _both(lp).objective == pytest.approx(-5.0)

    def test_objective_constant_carried(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_constraint(x >= 2)
        lp.set_objective(x + 10)
        solution = _both(lp)
        assert solution.objective == pytest.approx(12.0)

    def test_transportation_problem(self):
        # 2 plants (supply 20, 30) x 2 markets (demand 25, 25).
        costs = {(0, 0): 1.0, (0, 1): 4.0, (1, 0): 2.0, (1, 1): 1.0}
        lp = LinearProgram()
        ship = {k: lp.add_variable(f"s{k}") for k in costs}
        lp.add_constraint(ship[(0, 0)] + ship[(0, 1)] <= 20)
        lp.add_constraint(ship[(1, 0)] + ship[(1, 1)] <= 30)
        lp.add_constraint(ship[(0, 0)] + ship[(1, 0)] == 25)
        lp.add_constraint(ship[(0, 1)] + ship[(1, 1)] == 25)
        objective = LinExpr()
        for k, var in ship.items():
            objective.add_term(var, costs[k])
        lp.set_objective(objective)
        solution = _both(lp)
        # Optimal: plant0 -> market0 (20), plant1 -> market0 (5) + market1 (25).
        assert solution.objective == pytest.approx(20 * 1 + 5 * 2 + 25 * 1)


class TestPersistentHighs:
    """PreparedHighs(persistent=True): loaded model, slack-basis solves."""

    def _program(self):
        """Mixed senses, a block, bounds, and an objective constant."""
        import numpy as np

        lp = LinearProgram()
        x = lp.add_variable("x", upper=10.0)
        y = lp.add_variable("y")
        z = lp.add_variable("z", lower=1.0)
        lp.add_constraint(x + y <= 8)
        lp.add_constraint(y + z >= 3)
        block = lp.add_constraint_block(
            np.array([0, 0, 1]),
            np.array([x.index, z.index, y.index]),
            np.array([1.0, 1.0, 1.0]),
            "==",
            np.array([6.0, 2.0]),
            name="B",
        )
        lp.set_objective(2 * x + 1 * y + 3 * z + 5)
        return lp, block

    def test_matches_linprog_solution(self):
        import numpy as np
        from repro.solver.scipy_backend import PreparedHighs, _highs_core

        lp, _ = self._program()
        cold = PreparedHighs(lp).solve()
        persistent = PreparedHighs(lp, persistent=True)
        warm = persistent.solve()
        if _highs_core() is not None:
            # The persistent session must actually engage — otherwise
            # the cached path silently regresses to the fallback.
            assert persistent._session is not None
        assert cold.status == warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(warm.x, cold.x, rtol=1e-9, atol=1e-9)
        assert warm["x"] == pytest.approx(cold["x"])

    def test_rhs_refresh_re_solves_hot_model(self):
        from repro.solver.scipy_backend import PreparedHighs, _highs_core

        lp, block = self._program()
        prepared = PreparedHighs(lp, persistent=True)
        first = prepared.solve()
        assert first.is_optimal
        if _highs_core() is not None:
            session = prepared._session
            assert session is not None
        # Mutate the block RHS in place, as the plan caches do.
        block.rhs[0] = 7.5
        second = prepared.solve()
        fresh = PreparedHighs(lp).solve()
        assert second.is_optimal
        if _highs_core() is not None:
            # Still the same hot HiGHS instance after the RHS refresh.
            assert prepared._session is not None
            assert prepared._session[0] is session[0]
        assert second.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-9)
        # And back: the session must not remember stale bounds.
        block.rhs[0] = 6.0
        third = prepared.solve()
        assert third.objective == pytest.approx(first.objective, rel=1e-9, abs=1e-9)

    def test_infeasible_status(self):
        from repro.solver.scipy_backend import PreparedHighs

        lp = LinearProgram()
        a = lp.add_variable("a")
        lp.add_constraint(a <= 1)
        lp.add_constraint(a >= 2)
        lp.set_objective(a._expr())
        assert PreparedHighs(lp, persistent=True).solve().status == "infeasible"

    def test_falls_back_without_bindings(self, monkeypatch):
        import repro.solver.scipy_backend as backend

        monkeypatch.setattr(backend, "_highs_core", lambda: None)
        lp, _ = self._program()
        solution = backend.PreparedHighs(lp, persistent=True).solve()
        assert solution.is_optimal
        assert solution.objective == pytest.approx(backend.PreparedHighs(lp).solve().objective)

    def test_session_failure_warns_and_falls_back(self, monkeypatch):
        import warnings

        from repro.solver.scipy_backend import PreparedHighs

        def broken(self, core, first_col, free_rows):
            raise AttributeError("'_Highs' object has no attribute 'clearSolver'")

        monkeypatch.setattr(PreparedHighs, "_solve_persistent", broken)
        lp, _ = self._program()
        prepared = PreparedHighs(lp, persistent=True)
        with pytest.warns(RuntimeWarning, match="AttributeError"):
            solution = prepared.solve()
        reference = PreparedHighs(lp).solve()
        assert solution.is_optimal
        assert solution.objective == reference.objective
        np.testing.assert_array_equal(solution.x, reference.x)
        # The fallback is permanent and warns once: the next solve goes
        # straight to linprog.
        assert not prepared.persistent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prepared.solve().objective == reference.objective


@settings(max_examples=25, deadline=None)
@given(
    c=st.lists(st.floats(min_value=0.1, max_value=10), min_size=3, max_size=3),
    b=st.lists(st.floats(min_value=1.0, max_value=50), min_size=2, max_size=2),
)
def test_backends_agree_on_random_covering_lps(c, b):
    """min c'x s.t. sum(x) >= b1, x0 + 2*x2 >= b2 — always feasible."""
    lp = LinearProgram()
    xs = [lp.add_variable(f"x{i}") for i in range(3)]
    lp.add_constraint(xs[0] + xs[1] + xs[2] >= b[0])
    lp.add_constraint(xs[0] + 2 * xs[2] >= b[1])
    objective = LinExpr()
    for coeff, var in zip(c, xs):
        objective.add_term(var, coeff)
    lp.set_objective(objective)
    simplex = solve_simplex(lp)
    highs = lp.solve()
    assert simplex.is_optimal and highs.is_optimal
    assert simplex.objective == pytest.approx(highs.objective, rel=1e-5)
