"""REP005 mutate-without-restore: an in-place RHS edit followed by a
solve must be exception-safe.

``PlanCache``-style planners mutate the cached constraint blocks' RHS
arrays in place, solve, and rely on the next day overwriting them.
PR 6 fixed the failure mode this rule pins: a solve that *raises*
between the mutation and the overwrite leaves the cache (and the
persistent solver session's sent-bounds bookkeeping) describing a day
it never solved, corrupting every later solve.  The sanctioned shape
is mutate, then solve inside ``try`` with the restore in the
handler/``finally`` (see
:meth:`repro.core.titan_next.PlanCache.solve_day`).

The rule flags a function that stores into an ``rhs``-named target
(``block.rhs[:] = ...``, ``rhs[i] *= ...`` on an aliased array) and
later calls a ``solve``-named callable, when *neither* sits inside a
``try`` block.  RHS edits with no solve in the same function (e.g.
``refresh_capacity_rhs``, which ``solve_day`` calls inside its guarded
section) are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from ..engine import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
    inside_try,
    last_segment,
    register,
)


def _names_rhs(target: ast.expr) -> bool:
    """Does an assignment target reach through an ``rhs``-named value?"""
    node: Optional[ast.expr] = target
    while node is not None:
        if isinstance(node, ast.Name):
            return "rhs" in node.id.lower()
        if isinstance(node, ast.Attribute):
            if "rhs" in node.attr.lower():
                return True
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            return False
    return False


@register
class MutateWithoutRestoreRule(Rule):
    id = "REP005"
    name = "mutate-without-restore"
    summary = "in-place RHS mutation followed by a solve with no try/finally restore"

    def run(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(node, ctx)

    def _check_function(self, func: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        mutations: List[ast.AST] = []
        solves: List[ast.AST] = []
        # Walk the function body, pruning nested defs (checked on their
        # own) so their mutations/solves don't cross-contaminate.
        stack: List[ast.AST] = list(ast.iter_child_nodes(func))
        body: List[ast.AST] = []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body.append(node)
            stack.extend(ast.iter_child_nodes(node))
        for node in body:
            if isinstance(node, ast.Assign):
                if any(
                    isinstance(t, (ast.Subscript, ast.Attribute)) and _names_rhs(t)
                    for t in node.targets
                ):
                    mutations.append(node)
            elif isinstance(node, ast.AugAssign):
                if _names_rhs(node.target):
                    mutations.append(node)
            elif isinstance(node, ast.Call):
                if "solve" in last_segment(dotted_name(node.func)).lower():
                    solves.append(node)
        unprotected_mutations = [m for m in mutations if not inside_try(m)]
        unprotected_solves = [s for s in solves if not inside_try(s)]
        for mutation in unprotected_mutations:
            if any(solve.lineno > mutation.lineno for solve in unprotected_solves):
                yield self.finding(
                    ctx,
                    mutation,
                    "RHS mutated in place and solved later in this function with no "
                    "try/finally restore — a raising solve leaves the cached structure "
                    "describing a day it never solved",
                )
