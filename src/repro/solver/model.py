"""A small linear-programming modeling layer.

The paper's Titan-Next LP (Fig 13) and its Locality-First baseline are
expressed against this interface.  It supports non-negative (optionally
upper-bounded) variables, linear expressions with operator overloading,
and ≤ / ≥ / = constraints.  :meth:`LinearProgram.solve` runs SciPy's
HiGHS backend (:mod:`repro.solver.scipy_backend`); the bundled dense
two-phase simplex (:func:`repro.solver.simplex.solve_simplex`) returns
the same solution object and serves tests as an independent oracle.

Two model-building styles coexist:

* the *scalar* style — :meth:`LinearProgram.add_variable`,
  operator-overloaded :class:`LinExpr` and :class:`Constraint` — is
  convenient for small models and tests;
* the *array-first* style — :meth:`LinearProgram.add_variables` (integer
  handles) plus :meth:`LinearProgram.add_constraint_block` (COO
  triplets sharing one sense) — skips per-term Python dict churn
  entirely and is what the production Titan-Next builder emits.

Both styles can be mixed freely in one program; the backends assemble
scalar constraints row by row and blocks with vectorized concatenation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]

LE = "<="
GE = ">="
EQ = "=="

_SENSES = (LE, GE, EQ)


class Variable:
    """A decision variable (non-negative by default)."""

    __slots__ = ("index", "name", "lower", "upper")

    def __init__(
        self, index: int, name: str, lower: float = 0.0, upper: Optional[float] = None
    ) -> None:
        if upper is not None and upper < lower:
            raise ValueError(f"variable {name}: upper < lower")
        self.index = index
        self.name = name
        self.lower = lower
        self.upper = upper

    def __repr__(self) -> str:
        return f"Variable({self.name})"

    # -- arithmetic: variables promote to expressions -------------------

    def _expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0})

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-1.0 * self._expr()) + other

    def __mul__(self, factor: Number) -> "LinExpr":
        return self._expr() * factor

    __rmul__ = __mul__

    def __le__(self, other):
        return self._expr() <= other

    def __ge__(self, other):
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        return self._expr() == other

    def __hash__(self) -> int:
        return id(self)


class LinExpr:
    """A linear expression: sum of coeff * variable plus a constant."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Optional[Dict[int, float]] = None, constant: float = 0.0) -> None:
        self.coeffs: Dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    @staticmethod
    def _coerce(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value._expr()
        if isinstance(value, (int, float)):
            return LinExpr(constant=float(value))
        raise TypeError(f"cannot use {type(value).__name__} in a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.constant)

    def add_term(self, var: "Variable", coeff: Number = 1.0) -> "LinExpr":
        """In-place ``self += coeff * var`` (O(1); use when building large sums)."""
        self.coeffs[var.index] = self.coeffs.get(var.index, 0.0) + float(coeff)
        return self

    def add_terms(self, indices: Sequence[int], coeffs: Sequence[float]) -> "LinExpr":
        """In-place vectorized ``self += sum(coeffs[i] * x[indices[i]])``.

        Accepts integer variable handles directly, so array-first callers
        never have to materialize :class:`Variable` objects.
        """
        acc = self.coeffs
        for idx, coeff in zip(indices, coeffs):
            idx = int(idx)
            acc[idx] = acc.get(idx, 0.0) + float(coeff)
        return self

    def __add__(self, other) -> "LinExpr":
        other = self._coerce(other)
        out = self.copy()
        for idx, coeff in other.coeffs.items():
            out.coeffs[idx] = out.coeffs.get(idx, 0.0) + coeff
        out.constant += other.constant
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return self._coerce(other) - self

    def __mul__(self, factor: Number) -> "LinExpr":
        if not isinstance(factor, (int, float)):
            raise TypeError("expressions can only be scaled by numbers")
        return LinExpr({i: c * factor for i, c in self.coeffs.items()}, self.constant * factor)

    __rmul__ = __mul__

    def __le__(self, other) -> "Constraint":
        return Constraint(self - self._coerce(other), LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - self._coerce(other), GE)

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - self._coerce(other), EQ)

    def __hash__(self) -> int:
        return id(self)

    def value(self, assignment: Sequence[float]) -> float:
        """Evaluate under a variable assignment (by index)."""
        return self.constant + sum(c * assignment[i] for i, c in self.coeffs.items())


@dataclass
class Constraint:
    """``expr (≤ | ≥ | =) 0`` in normalized form."""

    expr: LinExpr
    sense: str
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in _SENSES:
            raise ValueError(f"unknown sense: {self.sense}")

    @property
    def rhs(self) -> float:
        """Right-hand side when coefficients are moved left: -constant."""
        return -self.expr.constant


class ConstraintBlock:
    """A batch of same-sense constraint rows in COO triplet form.

    ``rows`` are block-local row ids in ``[0, num_rows)``, ``cols`` are
    integer variable handles, and ``vals`` the matching coefficients;
    duplicate (row, col) entries accumulate.  ``rhs`` has one entry per
    row and stays *mutable*: plan caches refresh it day to day while the
    assembled matrix structure is reused.
    """

    __slots__ = ("rows", "cols", "vals", "sense", "rhs", "name")

    def __init__(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        vals: Sequence[float],
        sense: str,
        rhs: Sequence[float],
        name: str = "",
    ) -> None:
        if sense not in _SENSES:
            raise ValueError(f"unknown sense: {sense}")
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.rhs = np.asarray(rhs, dtype=np.float64)
        self.sense = sense
        self.name = name
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError("rows, cols and vals must have identical shapes")
        if self.rows.size and (self.rows.min() < 0 or self.rows.max() >= self.rhs.size):
            raise ValueError("row ids must lie in [0, len(rhs))")

    @property
    def num_rows(self) -> int:
        return int(self.rhs.size)

    def iter_rows(self) -> Iterator[Tuple[np.ndarray, np.ndarray, str, float]]:
        """Yield ``(cols, vals, sense, rhs)`` per row (dense backends)."""
        order = np.argsort(self.rows, kind="stable")
        rows, cols, vals = self.rows[order], self.cols[order], self.vals[order]
        boundaries = np.searchsorted(rows, np.arange(self.num_rows + 1))
        for r in range(self.num_rows):
            lo, hi = boundaries[r], boundaries[r + 1]
            yield cols[lo:hi], vals[lo:hi], self.sense, float(self.rhs[r])


class Solution:
    """Result of an LP solve.

    The by-index assignment ``x`` is the primary artifact; the
    name-keyed ``values`` dict is derived lazily and kept only for
    debugging and small-model convenience.
    """

    def __init__(
        self,
        status: str,  # "optimal" | "infeasible" | "unbounded" | "error"
        objective: Optional[float],
        values: Optional[Dict[str, float]] = None,
        iterations: int = 0,
        x: Optional[np.ndarray] = None,
        name_of: Optional[Callable[[int], str]] = None,
    ) -> None:
        self.status = status
        self.objective = objective
        self.iterations = iterations
        self.x = None if x is None else np.asarray(x, dtype=np.float64)
        self._name_of = name_of
        self._values = dict(values) if values is not None else None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def values(self) -> Dict[str, float]:
        """Name-keyed assignment, built on first access (debug path)."""
        if self._values is None:
            if self.x is None or self._name_of is None:
                self._values = {}
            else:
                name_of = self._name_of
                self._values = {name_of(i): float(v) for i, v in enumerate(self.x)}
        return self._values

    def value_at(self, index: int) -> float:
        """The solution value of one variable, by integer handle."""
        if self.x is None:
            raise ValueError("solution carries no by-index assignment")
        return float(self.x[index])

    def __getitem__(self, var: Union[Variable, str]) -> float:
        if isinstance(var, Variable) and self.x is not None:
            return float(self.x[var.index])
        name = var.name if isinstance(var, Variable) else var
        return self.values[name]


class LinearProgram:
    """A minimization LP built incrementally.

    Variable storage is columnar (bounds arrays plus lazy names); the
    scalar :meth:`add_variable` API wraps it with eager
    :class:`Variable` objects, while :meth:`add_variables` hands out
    integer handles without materializing per-variable objects.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.constraints: List[Constraint] = []
        self.constraint_blocks: List[ConstraintBlock] = []
        self.objective: LinExpr = LinExpr()
        self._obj_array: Optional[np.ndarray] = None
        self._obj_constant: float = 0.0
        self._names: Dict[str, Variable] = {}
        self._explicit: Dict[int, Variable] = {}
        self._lowers: List[float] = []
        self._uppers: List[Optional[float]] = []
        #: (start, count, namer) per batch, for lazy name generation.
        self._batches: List[Tuple[int, int, Optional[Callable[[int], str]]]] = []
        self._batch_starts: List[int] = []

    # -- variables -----------------------------------------------------------

    def add_variable(
        self, name: str, lower: float = 0.0, upper: Optional[float] = None
    ) -> Variable:
        if name in self._names:
            raise ValueError(f"duplicate variable name: {name}")
        var = Variable(self.num_variables, name, lower, upper)
        self._lowers.append(float(lower))
        self._uppers.append(upper)
        self._names[name] = var
        self._explicit[var.index] = var
        return var

    def add_variables(
        self,
        count: int,
        lower: float = 0.0,
        upper: Optional[float] = None,
        namer: Optional[Callable[[int], str]] = None,
        prefix: str = "v",
    ) -> np.ndarray:
        """Batch-create ``count`` variables; returns their integer handles.

        Names are generated lazily — ``namer(offset)`` (offset local to
        the batch) when given, else ``f"{prefix}{global_index}"`` — and
        only when something actually asks for them (debugging, the
        ``values`` dict).  Bounds are scalars shared by the batch.

        Unlike :meth:`add_variable`, lazy names are *not* checked for
        uniqueness (doing so would force generating every name); keep
        batch namers disjoint from explicit names, or stick to integer
        handles — name-keyed lookups are a debug convenience only.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if upper is not None and upper < lower:
            raise ValueError("upper < lower")
        start = self.num_variables
        self._lowers.extend([float(lower)] * count)
        self._uppers.extend([upper] * count)
        if namer is None:
            fixed = prefix
            namer = lambda offset, _s=start: f"{fixed}{_s + offset}"  # noqa: E731
        self._batches.append((start, count, namer))
        self._batch_starts.append(start)
        return np.arange(start, start + count, dtype=np.int64)

    def variable(self, name: str) -> Variable:
        return self._names[name]

    def variable_name(self, index: int) -> str:
        """The (possibly lazily generated) name of a variable handle."""
        var = self._explicit.get(index)
        if var is not None:
            return var.name
        pos = bisect_right(self._batch_starts, index) - 1
        if pos >= 0:
            start, count, namer = self._batches[pos]
            if start <= index < start + count:
                return namer(index - start)
        raise IndexError(f"no variable with handle {index}")

    @property
    def variables(self) -> List[Variable]:
        """Materialized :class:`Variable` views (scalar/debug path only)."""
        out = []
        for index in range(self.num_variables):
            var = self._explicit.get(index)
            if var is None:
                var = Variable(
                    index, self.variable_name(index), self._lowers[index], self._uppers[index]
                )
            out.append(var)
        return out

    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper) bound vectors; ``+inf`` marks unbounded above."""
        lowers = np.asarray(self._lowers, dtype=np.float64)
        uppers = np.array(
            [np.inf if u is None else u for u in self._uppers], dtype=np.float64
        )
        return lowers, uppers

    # -- constraints ---------------------------------------------------------

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise TypeError("add_constraint expects a Constraint (use <=, >= or ==)")
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def add_constraint_block(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        vals: Sequence[float],
        sense: str,
        rhs: Sequence[float],
        name: str = "",
    ) -> ConstraintBlock:
        """Append a batch of same-sense rows given as COO triplets."""
        block = ConstraintBlock(rows, cols, vals, sense, rhs, name)
        if block.cols.size and (block.cols.min() < 0 or block.cols.max() >= self.num_variables):
            raise ValueError("column handle out of range")
        self.constraint_blocks.append(block)
        return block

    def iter_constraint_rows(self) -> Iterator[Tuple[np.ndarray, np.ndarray, str, float]]:
        """Unified row view over scalar constraints and blocks.

        Yields ``(cols, vals, sense, rhs)`` per row; duplicate column
        entries within a row may repeat and must be accumulated by the
        consumer (e.g. ``np.add.at``).
        """
        for constraint in self.constraints:
            items = constraint.expr.coeffs
            cols = np.fromiter(items.keys(), dtype=np.int64, count=len(items))
            vals = np.fromiter(items.values(), dtype=np.float64, count=len(items))
            yield cols, vals, constraint.sense, constraint.rhs
        for block in self.constraint_blocks:
            yield from block.iter_rows()

    # -- objective -----------------------------------------------------------

    def set_objective(self, expr: Union[LinExpr, Variable]) -> None:
        """Set the (minimization) objective from a scalar expression."""
        self.objective = LinExpr._coerce(expr)
        self._obj_array = None
        self._obj_constant = 0.0

    def set_objective_array(self, coeffs: np.ndarray, constant: float = 0.0) -> None:
        """Set the objective from a dense by-index coefficient vector."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self.num_variables,):
            raise ValueError(
                f"objective vector has {coeffs.shape} entries, expected ({self.num_variables},)"
            )
        self._obj_array = coeffs
        self._obj_constant = float(constant)
        self.objective = LinExpr()

    def objective_vector(self) -> np.ndarray:
        """Dense objective coefficients (combining both styles)."""
        c = np.zeros(self.num_variables)
        if self._obj_array is not None:
            c[: self._obj_array.size] += self._obj_array
        for idx, coeff in self.objective.coeffs.items():
            c[idx] += coeff
        return c

    @property
    def objective_constant(self) -> float:
        return self.objective.constant + self._obj_constant

    def objective_value(self, x: np.ndarray) -> float:
        """Evaluate the objective at a by-index assignment."""
        value = float(self.objective_vector() @ np.asarray(x, dtype=np.float64))
        return value + self.objective_constant

    # -- shape ---------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._lowers)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints) + sum(b.num_rows for b in self.constraint_blocks)

    # -- solve ---------------------------------------------------------------

    def solve(self) -> Solution:
        """Solve with SciPy's HiGHS (:func:`~repro.solver.scipy_backend.solve_highs`)."""
        from .scipy_backend import solve_highs

        return solve_highs(self)
