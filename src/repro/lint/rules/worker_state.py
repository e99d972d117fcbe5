"""REP004 worker-state-readonly: worker-side code never writes through
worker state.

A pool worker's state (its unpickled setup and trace generators) is
shared by every task that worker runs, and inline it *is* the caller's
own setup — so an in-place write from one day's task leaks into every
later day, breaking the contract that per-day work is a pure function
of ``(setup, day, seed)`` and that ``workers=1`` reproduces any pool
byte for byte.  This rule catches such writes at review time,
including paths tests never execute.

**Worker scope.** A function is worker-side when its name ends in
``_task`` or is ``_init_worker``, or when its body resolves worker
state via ``_state_or_worker(...)``.

**Taint.** Within a worker-scope function, the state object (parameters
named ``state``, values returned by ``_state_or_worker``, and anything
reached from those through plain attribute/subscript aliasing) is
tainted; method-call *results* are not (they are new objects).
Flagged mutations of tainted values: subscript stores, augmented
assigns, mutating methods (``.fill``, ``.sort``, ``.partition``,
``.put``, ``.itemset``), ``out=`` keyword targets, and
``np.<ufunc>.at`` scatter updates.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..engine import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
    last_segment,
    register,
    root_name,
)

_STATE_SOURCES = {"_state_or_worker"}
_STATE_PARAMS = {"state"}
_MUTATING_METHODS = {"fill", "sort", "partition", "put", "itemset", "byteswap"}


def _is_worker_scope(func: ast.AST) -> bool:
    name = getattr(func, "name", "")
    if name.endswith("_task") or name == "_init_worker":
        return True
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            if last_segment(dotted_name(node.func)) in _STATE_SOURCES:
                return True
    return False


def _target_names(target: ast.expr) -> List[str]:
    """Plain names bound by an assignment target (tuples flattened)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _tainted_names(func: ast.AST) -> Set[str]:
    """Names aliasing worker state inside ``func`` (one forward pass)."""
    tainted: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in list(args.args) + list(args.kwonlyargs) + list(args.posonlyargs):
            if arg.arg in _STATE_PARAMS:
                tainted.add(arg.arg)
    statements = sorted(
        (n for n in ast.walk(func) if isinstance(n, ast.Assign)),
        key=lambda n: (n.lineno, n.col_offset),
    )
    for assign in statements:
        value = assign.value
        seeds = False
        if isinstance(value, ast.Call):
            seeds = last_segment(dotted_name(value.func)) in _STATE_SOURCES
        aliases = not seeds and root_name(value) in tainted
        if seeds or aliases:
            for target in assign.targets:
                tainted.update(_target_names(target))
    return tainted


@register
class WorkerStateReadOnlyRule(Rule):
    id = "REP004"
    name = "worker-state-readonly"
    summary = "worker-side code must not mutate state shared by the worker's tasks"
    packages = ("core", "workload")

    def run(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_worker_scope(node):
                    yield from self._check_function(node, ctx)

    def _check_function(self, func: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        tainted = _tainted_names(func)
        if not tainted:
            return
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and root_name(target) in tainted:
                        yield self.finding(
                            ctx,
                            node,
                            f"subscript write through worker state "
                            f"'{root_name(target)}' — it is shared by every task on the worker",
                        )
            elif isinstance(node, ast.AugAssign):
                if root_name(node.target) in tainted and not isinstance(node.target, ast.Name):
                    yield self.finding(
                        ctx,
                        node,
                        f"in-place update through worker state '{root_name(node.target)}' "
                        "— it is shared by every task on the worker",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(node, ctx, tainted)

    def _check_call(self, node: ast.Call, ctx: FileContext, tainted: Set[str]) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _MUTATING_METHODS and root_name(func.value) in tainted:
                yield self.finding(
                    ctx,
                    node,
                    f".{func.attr}() on worker state '{root_name(func.value)}' mutates "
                    "state shared by every task on the worker",
                )
            if func.attr == "at" and node.args and root_name(node.args[0]) in tainted:
                yield self.finding(
                    ctx,
                    node,
                    f"ufunc .at() scatter into worker state '{root_name(node.args[0])}' "
                    "mutates state shared by every task on the worker",
                )
        for keyword in node.keywords:
            if keyword.arg == "out" and root_name(keyword.value) in tainted:
                yield self.finding(
                    ctx,
                    node,
                    f"out= targets worker state '{root_name(keyword.value)}' — it is "
                    "shared by every task on the worker",
                )
