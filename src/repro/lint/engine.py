"""reprolint core: findings, the rule registry, and shared AST helpers.

The sweep engine's performance layers rest on repo-specific invariants
(counter-keyed Philox randomness, picklable pool payloads, read-only
worker state, restore-after-mutate solver discipline) that no
generic linter knows about.  Each invariant is enforced by one
:class:`Rule` — an AST pass registered here — and the runner applies
every registered rule to every scanned file, filtering findings through
``# reprolint: disable=`` comments (:mod:`repro.lint.suppress`) and the
committed baseline (:mod:`repro.lint.baseline`).

Rules are deliberately *static heuristics*: they prove the absence of a
textual pattern, not a dynamic property.  Code that violates a rule's
letter while honoring its spirit carries an explicit suppression
comment with a one-line justification — grep for ``reprolint:`` to
audit every exemption.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

#: Attribute name used to chain AST nodes to their parents.
_PARENT = "_reprolint_parent"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str  #: rule id, e.g. "REP002"
    name: str  #: rule slug, e.g. "no-id-keyed-cache"
    path: str  #: path as given to the runner (relative in CI)
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class FileContext:
    """Everything a rule pass may need about one source file."""

    path: str  #: display path (as passed / relative)
    source: str
    lines: List[str] = field(default_factory=list)
    tree: Optional[ast.AST] = None

    @property
    def parts(self) -> Tuple[str, ...]:
        return Path(self.path).parts

    def in_packages(self, names: Sequence[str]) -> bool:
        """True when the file lives under any directory named in ``names``."""
        return any(part in names for part in self.parts[:-1])


class Rule:
    """Base class: one registered invariant check.

    Subclasses set ``id``/``name``/``summary`` (and optionally
    ``packages`` to scope the rule to files under directories with
    those names) and implement :meth:`run` yielding findings.
    """

    id: str = "REP000"
    name: str = "unnamed"
    summary: str = ""
    #: Restrict the rule to files under directories with these names
    #: (e.g. ``("core", "workload")``); ``None`` scans everything.
    packages: Optional[Tuple[str, ...]] = None

    def applies(self, ctx: FileContext) -> bool:
        return self.packages is None or ctx.in_packages(self.packages)

    def run(self, tree: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            name=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: Registry: rule id -> rule instance, in registration order.
_RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    _RULES[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule (rule modules are imported on first use)."""
    from . import rules as _rules  # noqa: F401  (import populates the registry)

    return sorted(_RULES.values(), key=lambda rule: rule.id)


def select_rules(
    select: Optional[Sequence[str]] = None, ignore: Optional[Sequence[str]] = None
) -> List[Rule]:
    """Filter the registry by rule ids or names."""

    def matches(rule: Rule, tokens: Sequence[str]) -> bool:
        return rule.id in tokens or rule.name in tokens

    chosen = all_rules()
    if select:
        unknown = [t for t in select if not any(matches(r, [t]) for r in chosen)]
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(unknown)}")
        chosen = [rule for rule in chosen if matches(rule, select)]
    if ignore:
        chosen = [rule for rule in chosen if not matches(rule, ignore)]
    return chosen


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def attach_parents(tree: ast.AST) -> None:
    """Annotate every node with its parent (for upward context walks)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT, node)


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, _PARENT, None)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def last_segment(name: Optional[str]) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def root_name(node: ast.AST) -> Optional[str]:
    """The variable a Name/Attribute/Subscript chain is rooted at.

    A call anywhere in the chain breaks it (the call's result is a new
    object, not an alias of the root), which is what keeps taint-style
    rules from flagging derived values.
    """
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            node = node.value
            continue
        return None


def call_args(node: ast.Call) -> Iterable[ast.expr]:
    for arg in node.args:
        yield arg.value if isinstance(arg, ast.Starred) else arg
    for kw in node.keywords:
        yield kw.value


def inside_try(node: ast.AST) -> bool:
    """True when the node sits inside any ``try`` block's body.

    reprolint's restore-discipline rules treat a ``try`` (its handlers
    or ``finally`` presumably restore mutated state) as protection;
    this is a heuristic, not a proof.
    """
    current = node
    parent = parent_of(current)
    while parent is not None:
        if isinstance(parent, ast.Try) and current in parent.body:
            return True
        current, parent = parent, parent_of(parent)
    return False
