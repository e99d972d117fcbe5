"""REP006 unordered-iteration: sets never feed arrays or reductions
directly in sweep-phase code.

Python ``set`` iteration order depends on insertion history and hash
randomization of the *process* — the one thing the byte-identical
sweep contract cannot tolerate.  A set iterated into a list, array, or
accumulation makes results depend on which worker (or which run) built
the set.  The sanctioned idiom is ``sorted({...}, key=...)`` — the
plan cache's config set, for one, is built this way.

Flags direct iteration over a set expression (set literal, set
comprehension, ``set(...)``/``frozenset(...)`` call) in ``for``
statements and comprehension generators, plus set expressions handed
straight to ``np.array``/``np.asarray``/``np.fromiter``/``list``/
``tuple``.  Iterating a set-typed *variable* is invisible to this rule
(no type inference) — reviewers still carry that part of the contract.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding, Rule, dotted_name, last_segment, register

_MATERIALIZERS = {"array", "asarray", "fromiter", "list", "tuple"}


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return last_segment(dotted_name(node.func)) in {"set", "frozenset"}
    return False


@register
class UnorderedIterationRule(Rule):
    id = "REP006"
    name = "unordered-iteration"
    summary = "iterating a set into an array/reduction — order is nondeterministic"
    packages = ("core", "workload", "experiments")

    def _flag(self, ctx: FileContext, node: ast.AST, how: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"{how} iterates a set — iteration order is nondeterministic across "
            "processes/runs; wrap in sorted(...) with an explicit key",
        )

    def run(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self._flag(ctx, node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        yield self._flag(ctx, generator.iter, "comprehension")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if last_segment(name) in _MATERIALIZERS and node.args:
                    if _is_set_expr(node.args[0]):
                        yield self._flag(ctx, node.args[0], f"{last_segment(name)}(...)")
