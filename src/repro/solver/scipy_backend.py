"""HiGHS backend: solve :class:`LinearProgram` via scipy.optimize.linprog.

This is the production backend for Titan-Next's LP (tens of thousands of
variables).  Constraint matrices are assembled sparse: scalar
constraints are walked row by row, while :class:`ConstraintBlock` COO
triplets are concatenated wholesale — no per-term Python loops.

:class:`PreparedHighs` splits assembly from solving: the matrix
structure (the stacked ``[A_ub; A_eq]`` rows as one CSC matrix with
int32 indices, the column bounds, the objective) is built once and
frozen, while the right-hand sides are re-read from the program on
every :meth:`PreparedHighs.solve`.  Multi-day planners mutate block
``rhs`` arrays in place and re-solve without re-paying assembly.

With ``persistent=True`` the prepared program is additionally loaded
into a persistent HiGHS instance (SciPy's vendored ``highspy``
bindings) through the array form of ``passModel``, straight from the
CSC arrays: RHS refreshes become in-place row-bound updates on the live
model, and each solve clears the previous solve's basis and runs the
dual simplex from the slack basis with presolve off.  A solve may ask
for a restriction of the program — the columns from ``first_col`` on,
with some rows unbounded — and the session reloads that column suffix,
as views of the same arrays, whenever the asked-for first column
changes.  No basis crosses solves, so a solve's result depends only on
the columns and row bounds it loads, never on which solves came before
it.  This is the path the multi-day plan caches use.  When the bindings
are unavailable the flag degrades to the plain ``linprog`` path; when
the session raises, it degrades the same way for good and says so in a
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


def _open_session(core):
    """A fresh HiGHS instance with the session options set."""
    highs = core._Highs()
    for name, value in (
        ("output_flag", False),
        ("presolve", SESSION_PRESOLVE),
        ("primal_feasibility_tolerance", SESSION_FEASIBILITY_TOLERANCE),
        ("dual_feasibility_tolerance", SESSION_FEASIBILITY_TOLERANCE),
    ):
        if highs.setOptionValue(name, value) != core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
    return highs


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
        # Each sense's rows go through CSR first, which sums duplicate
        # entries; stacking then only moves values, so every entry is
        # bit-identical to the per-sense matrices linprog was given.
        blocks = [
            sparse.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(count, n),
            )
            for count, rows, cols, vals in (
                (n_ub, ub_rows, ub_cols, ub_vals),
                (n_eq, eq_rows, eq_cols, eq_vals),
            )
            if count
        ]
        matrix = sparse.vstack(blocks, format="csc") if blocks else sparse.csc_matrix((0, n))
        #: The stacked [A_ub; A_eq] rows, column-wise with int32 indices
        #: (HiGHS's index type): the one copy of the matrix, which the
        #: session loads, column suffixes included, as array views.
        self.matrix = sparse.csc_matrix(
            (
                matrix.data,
                matrix.indices.astype(np.int32, copy=False),
                matrix.indptr.astype(np.int32, copy=False),
            ),
            shape=matrix.shape,
        )
        self.col_lower, self.col_upper = lp.bounds_arrays()

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

    def row_bounds(
        self, free_rows: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(row_lower, row_upper) for the stacked [A_ub; A_eq] rows.

        Rows flagged in ``free_rows`` (a boolean mask over those rows)
        get no bounds at all.
        """
        b_ub, b_eq = self._rhs_vectors()
        lower = np.full(self.n_ub + self.n_eq, -np.inf)
        upper = np.full(self.n_ub + self.n_eq, np.inf)
        if b_ub is not None:
            upper[: self.n_ub] = b_ub
        if b_eq is not None:
            lower[self.n_ub :] = b_eq
            upper[self.n_ub :] = b_eq
        if free_rows is not None:
            lower[free_rows] = -np.inf
            upper[free_rows] = np.inf
        return lower, upper

    def _load(self, core, highs, first_col: int, row_lower, row_upper) -> None:
        """Pass the columns from ``first_col`` on to ``highs``.

        The array form of ``passModel`` copies the arrays straight into
        the model; the column suffix of the CSC matrix is a view of its
        index and value arrays, so only the column starts are new.  The
        all-zero integrality array marks every column continuous.
        """
        matrix = self.matrix
        start = matrix.indptr[first_col:-1] - matrix.indptr[first_col]
        entries = slice(matrix.indptr[first_col], matrix.indptr[-1])
        num_col = self.lp.num_variables - first_col
        # kHighsInf is IEEE infinity, so ±inf bounds (free rows,
        # unbounded columns) pass through as-is.
        status = highs.passModel(
            num_col,
            matrix.shape[0],
            int(matrix.indptr[-1] - matrix.indptr[first_col]),
            int(core.MatrixFormat.kColwise),
            int(core.ObjSense.kMinimize),
            0.0,
            self.c[first_col:],
            self.col_lower[first_col:],
            self.col_upper[first_col:],
            row_lower,
            row_upper,
            start,
            matrix.indices[entries],
            matrix.data[entries],
            np.zeros(num_col, dtype=np.int32),
        )
        if status != core.HighsStatus.kOk:
            raise RuntimeError("HiGHS rejected the prepared model")

    def _solve_persistent(
        self, core, first_col: int, free_rows: Optional[np.ndarray]
    ) -> Solution:
        """Load or refresh the live model, then solve it afresh.

        The session opens on the first solve and keeps its model while
        the asked-for first column stays the same: then only the
        changed row bounds go in.  Another first column reloads the
        model in the same instance.  HiGHS would keep the incumbent
        basis across ``changeRowBounds`` calls; ``clearSolver`` drops
        it, so every solve starts the dual simplex from the slack
        basis.  On the plan caches' LPs a hot start from another day's
        optimum halves the iterations but makes each several times
        dearer, and it ties a day's plan to the days solved before it.
        """
        row_lower, row_upper = self.row_bounds(free_rows)
        if self._session is None or self._session[1] != first_col:
            highs = self._session[0] if self._session is not None else _open_session(core)
            self._load(core, highs, first_col, row_lower, row_upper)
        else:
            highs, _, sent_lower, sent_upper = self._session
            changed = np.nonzero((row_lower != sent_lower) | (row_upper != sent_upper))[0]
            # The vendored bindings expose no batch row-bound setter
            # (only changeColsBounds), so changed rows go one by one;
            # a full C1 refresh is a few thousand cheap calls.
            for row in changed:
                highs.changeRowBounds(int(row), float(row_lower[row]), float(row_upper[row]))
        self._session = (highs, first_col, row_lower, row_upper)
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
        if first_col:
            x = np.concatenate([np.zeros(first_col), x])
        return Solution(
            status="optimal",
            objective=float(highs.getObjectiveValue()) + self.lp.objective_constant,
            iterations=iterations,
            x=x,
            name_of=self.lp.variable_name,
        )

    def solve(self, first_col: int = 0, free_rows: Optional[np.ndarray] = None) -> Solution:
        """Solve with current RHS values (matrix structure reused).

        ``first_col`` and ``free_rows`` restrict the program: only the
        columns from ``first_col`` on are loaded, and the rows flagged
        in ``free_rows`` (a boolean mask over the stacked rows) carry
        no bounds.  The returned ``x`` has every column of the program;
        the columns before ``first_col`` read 0.
        """
        lp = self.lp
        if self.persistent and lp.num_variables:
            core = _highs_core()
            if core is not None:
                try:
                    return self._solve_persistent(core, first_col, free_rows)
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
        return self._solve_linprog(first_col, free_rows)

    def _solve_linprog(self, first_col: int, free_rows: Optional[np.ndarray]) -> Solution:
        """One ``linprog`` solve of the (restricted) program.

        linprog takes no unbounded rows, so the rows ``free_rows`` flags
        are left out.
        """
        lp = self.lp
        matrix = self.matrix[:, first_col:] if first_col else self.matrix
        b_ub, b_eq = self._rhs_vectors()
        a_ub = matrix[: self.n_ub] if self.n_ub else None
        a_eq = matrix[self.n_ub :] if self.n_eq else None
        if free_rows is not None:
            if a_ub is not None:
                kept = ~free_rows[: self.n_ub]
                a_ub, b_ub = a_ub[kept], b_ub[kept]
            if a_eq is not None:
                kept = ~free_rows[self.n_ub :]
                a_eq, b_eq = a_eq[kept], b_eq[kept]
        bounds = (
            np.column_stack([self.col_lower[first_col:], self.col_upper[first_col:]])
            if lp.num_variables
            else None
        )
        result = linprog(
            self.c[first_col:],
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
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
        x = np.asarray(result.x, dtype=np.float64)
        if first_col:
            x = np.concatenate([np.zeros(first_col), x])
        objective = float(result.fun) + lp.objective_constant
        return Solution(
            status="optimal",
            objective=objective,
            iterations=int(result.nit),
            x=x,
            name_of=lp.variable_name,
        )


def solve_highs(lp: LinearProgram) -> Solution:
    """Solve with SciPy's HiGHS dual simplex / IPM."""
    return PreparedHighs(lp).solve()
