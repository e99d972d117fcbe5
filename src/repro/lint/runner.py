"""reprolint runner and CLI: scan files, apply rules, gate the build.

``python -m repro.lint [paths...]`` (also reachable as
``python -m repro lint``) scans every ``.py`` file under the given
paths (default: ``src``), runs all registered rules, filters
line-level ``# reprolint: disable=`` suppressions and the committed
baseline, and exits non-zero on anything left.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import baseline as baseline_module
from .engine import FileContext, Finding, Rule, all_rules, attach_parents, select_rules
from .report import render_json, render_text
from .suppress import filter_suppressed

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    yield candidate


def lint_source(
    source: str, path: str, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Lint one source string presented as ``path`` (test/API entry)."""
    chosen = list(rules) if rules is not None else all_rules()
    ctx = FileContext(path=path, source=source, lines=source.splitlines())
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Finding(
                rule="REP999",
                name="parse-error",
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                message=f"file does not parse: {error.msg}",
            )
        ]
    attach_parents(tree)
    ctx.tree = tree
    findings: List[Finding] = []
    for rule in chosen:
        if rule.applies(ctx):
            findings.extend(rule.run(tree, ctx))
    findings.sort(key=Finding.sort_key)
    return filter_suppressed(findings, ctx.lines)


def lint_paths(
    paths: Sequence[Path], rules: Optional[Sequence[Rule]] = None
) -> Tuple[List[Finding], Dict[str, List[str]], int]:
    """Lint files under ``paths``.

    Returns ``(findings, lines_by_path, files_scanned)`` —
    ``lines_by_path`` feeds baseline fingerprinting.
    """
    findings: List[Finding] = []
    lines_by_path: Dict[str, List[str]] = {}
    scanned = 0
    for file_path in iter_python_files(paths):
        display = file_path.as_posix()
        source = file_path.read_text(encoding="utf-8")
        scanned += 1
        lines_by_path[display] = source.splitlines()
        findings.extend(lint_source(source, display, rules))
    findings.sort(key=Finding.sort_key)
    return findings, lines_by_path, scanned


def _default_paths() -> List[Path]:
    src = Path("src")
    return [src] if src.is_dir() else [Path(".")]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST contract checker for the repo's determinism, pickle-safety, "
        "and worker-state invariants.",
    )
    parser.add_argument("paths", nargs="*", help="files/directories to scan (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--select", help="comma-separated rule ids/names to run (default: all)"
    )
    parser.add_argument("--ignore", help="comma-separated rule ids/names to skip")
    parser.add_argument(
        "--baseline",
        help="baseline file (default: ./reprolint-baseline.json when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument("--list-rules", action="store_true", help="list rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = ",".join(rule.packages) if rule.packages else "all files"
            print(f"{rule.id}  {rule.name:<24} [{scope}] {rule.summary}")
        return 0

    try:
        rules = select_rules(
            args.select.split(",") if args.select else None,
            args.ignore.split(",") if args.ignore else None,
        )
    except ValueError as error:
        print(f"repro.lint: {error}", file=sys.stderr)
        return 2

    paths = [Path(p) for p in args.paths] if args.paths else _default_paths()
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro.lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    findings, lines_by_path, scanned = lint_paths(paths, rules)

    baseline_path = Path(args.baseline) if args.baseline else Path(baseline_module.DEFAULT_BASELINE)
    if args.update_baseline:
        baseline_module.save(baseline_path, findings, lines_by_path)
        print(f"repro.lint: wrote {len(findings)} finding(s) to {baseline_path}")
        return 0

    dropped = 0
    if not args.no_baseline and baseline_path.exists():
        entries = baseline_module.load(baseline_path)
        findings, dropped = baseline_module.filter_baselined(findings, entries, lines_by_path)

    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings, scanned, dropped))
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
