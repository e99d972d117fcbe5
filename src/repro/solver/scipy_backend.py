"""HiGHS backend: solve :class:`LinearProgram` via scipy.optimize.linprog.

This is the production backend for Titan-Next's LP (tens of thousands of
variables).  Constraint matrices are assembled sparse: scalar
constraints are walked row by row, while :class:`ConstraintBlock` COO
triplets are concatenated wholesale — no per-term Python loops.

:class:`PreparedHighs` splits assembly from solving: the matrix
structure (A_ub / A_eq / bounds / objective) is built once and frozen,
while the right-hand sides are re-read from the program on every
:meth:`PreparedHighs.solve`.  Multi-day planners mutate block ``rhs``
arrays in place and re-solve without re-paying assembly.

With ``persistent=True`` the prepared program is additionally loaded
once into a persistent HiGHS instance (SciPy's vendored ``highspy``
bindings): RHS refreshes become in-place row-bound updates on the live
model, and each solve clears the previous solve's basis and runs the
dual simplex from the slack basis with presolve off.  No basis crosses
solves, so a solve's result depends only on the program's current
right-hand sides, never on which solves came before it.  This is the
path the multi-day plan caches use.  When the bindings are unavailable
the flag degrades to the plain ``linprog`` path; when the session
raises, it degrades the same way for good and says so in a
``RuntimeWarning``.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .model import EQ, GE, LE, ConstraintBlock, LinearProgram, Solution


#: HiGHS options a persistent session sets once, when it opens.  Every
#: solve starts from the slack basis, where presolve costs more than it
#: saves (on the global top-200 cached LP it takes 1.2 s to strip only
#: the zero-demand groups' columns).  Without presolve, HiGHS's default
#: 1e-7 feasibility tolerances can stop the dual simplex on a vertex
#: next to the presolved one; 1e-9 lands on the presolved vertex.
SESSION_PRESOLVE = "off"
SESSION_FEASIBILITY_TOLERANCE = 1e-9


def _highs_core():
    """SciPy's vendored highspy bindings, or None when unavailable."""
    try:
        from scipy.optimize._highspy import _core  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - depends on the SciPy build
        return None
    return _core if hasattr(_core, "_Highs") else None


class PreparedHighs:
    """A :class:`LinearProgram` assembled for repeated HiGHS solves."""

    def __init__(self, lp: LinearProgram, persistent: bool = False) -> None:
        self.lp = lp
        #: Solve through a persistent HiGHS instance that keeps the
        #: loaded model between solves (falls back to linprog when the
        #: bindings are missing).
        self.persistent = persistent
        self._session = None
        n = lp.num_variables
        self.c = lp.objective_vector()

        ub_rows: List[np.ndarray] = []
        ub_cols: List[np.ndarray] = []
        ub_vals: List[np.ndarray] = []
        eq_rows: List[np.ndarray] = []
        eq_cols: List[np.ndarray] = []
        eq_vals: List[np.ndarray] = []
        #: (kind, row offset, source) per RHS contributor, where source
        #: is a scalar Constraint or a ConstraintBlock; used to refresh
        #: b_ub / b_eq without touching the matrix.
        self._rhs_sources: List[Tuple[str, int, object]] = []
        n_ub = 0
        n_eq = 0

        for constraint in lp.constraints:
            items = constraint.expr.coeffs
            cols = np.fromiter(items.keys(), dtype=np.int64, count=len(items))
            vals = np.fromiter(items.values(), dtype=np.float64, count=len(items))
            if constraint.sense == EQ:
                eq_rows.append(np.full(cols.size, n_eq, dtype=np.int64))
                eq_cols.append(cols)
                eq_vals.append(vals)
                self._rhs_sources.append(("eq", n_eq, constraint))
                n_eq += 1
            else:
                sign = 1.0 if constraint.sense == LE else -1.0
                ub_rows.append(np.full(cols.size, n_ub, dtype=np.int64))
                ub_cols.append(cols)
                ub_vals.append(sign * vals)
                self._rhs_sources.append(("ub", n_ub, constraint))
                n_ub += 1

        for block in lp.constraint_blocks:
            if block.sense == EQ:
                eq_rows.append(block.rows + n_eq)
                eq_cols.append(block.cols)
                eq_vals.append(block.vals)
                self._rhs_sources.append(("eq", n_eq, block))
                n_eq += block.num_rows
            else:
                sign = 1.0 if block.sense == LE else -1.0
                ub_rows.append(block.rows + n_ub)
                ub_cols.append(block.cols)
                ub_vals.append(sign * block.vals)
                self._rhs_sources.append(("ub", n_ub, block))
                n_ub += block.num_rows

        self.n_ub = n_ub
        self.n_eq = n_eq
        self.a_ub = (
            sparse.csr_matrix(
                (np.concatenate(ub_vals), (np.concatenate(ub_rows), np.concatenate(ub_cols))),
                shape=(n_ub, n),
            )
            if n_ub
            else None
        )
        self.a_eq = (
            sparse.csr_matrix(
                (np.concatenate(eq_vals), (np.concatenate(eq_rows), np.concatenate(eq_cols))),
                shape=(n_eq, n),
            )
            if n_eq
            else None
        )
        lowers, uppers = lp.bounds_arrays()
        self.bounds = np.column_stack([lowers, uppers]) if n else None

    def __getstate__(self):
        raise TypeError(
            "PreparedHighs owns a live HiGHS session and cannot cross a process "
            "boundary; build a fresh instance from the LinearProgram on the far side"
        )

    def _rhs_vectors(self) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Re-read right-hand sides from the (possibly mutated) program."""
        b_ub = np.zeros(self.n_ub) if self.n_ub else None
        b_eq = np.zeros(self.n_eq) if self.n_eq else None
        for kind, offset, source in self._rhs_sources:
            target = b_eq if kind == "eq" else b_ub
            sign = -1.0 if source.sense == GE else 1.0
            if isinstance(source, ConstraintBlock):
                target[offset : offset + source.num_rows] = sign * source.rhs
            else:
                target[offset] = sign * source.rhs
        return b_ub, b_eq

    # -- persistent-model solving ------------------------------------------

    @property
    def in_session(self) -> bool:
        """Whether solves run in the persistent session (the last one did)."""
        return self._session is not None

    def row_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """(row_lower, row_upper) for the stacked [A_ub; A_eq] rows."""
        b_ub, b_eq = self._rhs_vectors()
        lower = np.full(self.n_ub + self.n_eq, -np.inf)
        upper = np.full(self.n_ub + self.n_eq, np.inf)
        if b_ub is not None:
            upper[: self.n_ub] = b_ub
        if b_eq is not None:
            lower[self.n_ub :] = b_eq
            upper[self.n_ub :] = b_eq
        return lower, upper

    def _open_session(self, core) -> None:
        """Pass the frozen structure to a fresh HiGHS instance once."""
        blocks = [m for m in (self.a_ub, self.a_eq) if m is not None]
        matrix = sparse.vstack(blocks).tocsc() if blocks else None
        row_lower, row_upper = self.row_bounds()

        model = core.HighsLp()
        model.num_col_ = self.lp.num_variables
        model.num_row_ = self.n_ub + self.n_eq
        model.col_cost_ = np.asarray(self.c, dtype=np.float64)
        lowers, uppers = self.lp.bounds_arrays()
        # kHighsInf is IEEE infinity, so ±inf bounds pass through as-is.
        model.col_lower_ = np.asarray(lowers, dtype=np.float64)
        model.col_upper_ = np.asarray(uppers, dtype=np.float64)
        model.row_lower_ = row_lower
        model.row_upper_ = row_upper
        if matrix is not None:
            a = core.HighsSparseMatrix()
            a.format_ = core.MatrixFormat.kColwise
            a.num_col_ = self.lp.num_variables
            a.num_row_ = matrix.shape[0]
            a.start_ = matrix.indptr.astype(np.int64)
            a.index_ = matrix.indices.astype(np.int64)
            a.value_ = matrix.data.astype(np.float64)
            model.a_matrix_ = a
        highs = core._Highs()
        for name, value in (
            ("output_flag", False),
            ("presolve", SESSION_PRESOLVE),
            ("primal_feasibility_tolerance", SESSION_FEASIBILITY_TOLERANCE),
            ("dual_feasibility_tolerance", SESSION_FEASIBILITY_TOLERANCE),
        ):
            if highs.setOptionValue(name, value) != core.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
        if highs.passModel(model) != core.HighsStatus.kOk:
            raise RuntimeError("HiGHS rejected the prepared model")
        self._session = (highs, row_lower, row_upper)

    def _solve_persistent(self, core) -> Solution:
        """Refresh row bounds on the live model and solve it afresh.

        HiGHS would keep the incumbent basis across ``changeRowBounds``
        calls; ``clearSolver`` drops it, so every solve starts the dual
        simplex from the slack basis.  On the plan caches' LPs a hot
        start from another day's optimum halves the iterations but
        makes each several times dearer, and it ties a day's plan to
        the days solved before it.
        """
        if self._session is None:
            self._open_session(core)
        else:
            highs, sent_lower, sent_upper = self._session
            row_lower, row_upper = self.row_bounds()
            changed = np.nonzero(
                (row_lower != sent_lower) | (row_upper != sent_upper)
            )[0]
            # The vendored bindings expose no batch row-bound setter
            # (only changeColsBounds), so changed rows go one by one;
            # a full C1 refresh is a few thousand cheap calls.
            for row in changed:
                highs.changeRowBounds(int(row), float(row_lower[row]), float(row_upper[row]))
            self._session = (highs, row_lower, row_upper)
        highs = self._session[0]
        highs.clearSolver()
        highs.run()
        status = highs.getModelStatus()
        iterations = int(highs.getInfo().simplex_iteration_count)
        if status == core.HighsModelStatus.kInfeasible:
            return Solution(status="infeasible", objective=None, iterations=iterations)
        if status == core.HighsModelStatus.kUnbounded:
            return Solution(status="unbounded", objective=None, iterations=iterations)
        if status != core.HighsModelStatus.kOptimal:
            return Solution(status="error", objective=None, iterations=iterations)
        x = np.asarray(highs.getSolution().col_value, dtype=np.float64)
        return Solution(
            status="optimal",
            objective=float(highs.getObjectiveValue()) + self.lp.objective_constant,
            iterations=iterations,
            x=x,
            name_of=self.lp.variable_name,
        )

    def solve(self) -> Solution:
        """Solve with current RHS values (matrix structure reused)."""
        lp = self.lp
        if self.persistent and lp.num_variables:
            core = _highs_core()
            if core is not None:
                try:
                    return self._solve_persistent(core)
                except Exception as exc:
                    # The vendored bindings are a private API; if their
                    # surface drifted, degrade to linprog permanently
                    # rather than failing the solve.  Say so: linprog
                    # brings back presolve and its own tolerances.
                    warnings.warn(
                        f"persistent HiGHS session failed ({type(exc).__name__}: {exc}); "
                        "solving this program through linprog from now on",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self.persistent = False
                    self._session = None
        b_ub, b_eq = self._rhs_vectors()
        result = linprog(
            self.c,
            A_ub=self.a_ub,
            b_ub=b_ub,
            A_eq=self.a_eq,
            b_eq=b_eq,
            bounds=self.bounds,
            method="highs",
        )
        if result.status == 2:
            return Solution(status="infeasible", objective=None, iterations=int(result.nit))
        if result.status == 3:
            return Solution(status="unbounded", objective=None, iterations=int(result.nit))
        if not result.success:
            return Solution(
                status="error", objective=None, iterations=int(getattr(result, "nit", 0))
            )
        objective = float(result.fun) + lp.objective_constant
        return Solution(
            status="optimal",
            objective=objective,
            iterations=int(result.nit),
            x=np.asarray(result.x, dtype=np.float64),
            name_of=lp.variable_name,
        )


def solve_highs(lp: LinearProgram) -> Solution:
    """Solve with SciPy's HiGHS dual simplex / IPM."""
    return PreparedHighs(lp).solve()
