"""Gated checks for the external static tools (ruff, mypy), and a
reachability guard over ``src/``.

The repo vendors its own semantic linter (reprolint) so the tree can be
checked anywhere; ruff and mypy are optional dev tools — these tests
skip when the binaries are absent and act as the enforcement point in
CI, where both are installed.  The configs they run against are
committed (``ruff.toml``, ``mypy.ini``).

The guard follows imports (stdlib ``ast`` only) from the surfaces that
regenerate the paper's artifacts — the CLI, the experiment registry,
the sweep and stress entry points, ``examples/`` and ``perfbench/`` —
and fails on any ``src/`` module none of them reaches.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Modules the guard starts from, besides every ``repro`` import in
#: ``examples/*.py`` and ``perfbench/*.py``.
REACH_ROOTS = [
    "repro.cli",
    "repro.__main__",
    "repro.lint.__main__",
    "repro.experiments.registry",
    "repro.core.sweep",
    "repro.core.stress",
]

#: Modules kept although no root reaches them.  ``solver.simplex`` is the
#: independent oracle that ``tests/test_solver.py`` checks HiGHS against.
UNREACHED_ALLOWED = {"repro.solver.simplex"}

#: The strict-subset modules mypy.ini fully annotates (process-boundary
#: code: pool supervision).
MYPY_TARGETS = [
    "src/repro/core/sweep.py",
]


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_subset_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", *MYPY_TARGETS],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_configs_are_committed():
    assert (REPO_ROOT / "ruff.toml").is_file()
    assert (REPO_ROOT / "mypy.ini").is_file()
    for target in MYPY_TARGETS:
        assert (REPO_ROOT / target).is_file()


def _import_base(node, package):
    """The absolute module an ``ImportFrom`` node imports from."""
    if not node.level:
        return node.module
    parent = package.rsplit(".", node.level - 1)[0]
    return f"{parent}.{node.module}" if node.module else parent


def test_every_src_module_is_reached():
    """Every ``src/`` module is reached from a root: a reached module
    imports it or a name defined in it.  A name imported through a
    package ``__init__`` resolves to the module that defines it, so a
    re-export alone reaches nothing; importing a package as a module
    (``from . import rules``) reaches the imports of its ``__init__``."""
    trees, packages = {}, set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        trees[".".join(parts)] = ast.parse(path.read_text(), str(path))

    def package_of(module):
        return module if module in packages else module.rpartition(".")[0]

    def defining_module(module, name):
        if f"{module}.{name}" in trees:
            return f"{module}.{name}"
        for node in trees[module].body if module in trees else ():
            for alias in node.names if isinstance(node, ast.ImportFrom) else ():
                if (alias.asname or alias.name) == name:
                    return defining_module(_import_base(node, package_of(module)), alias.name)
        return module

    def targets(tree, module):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = _import_base(node, package_of(module))
                found = [defining_module(base, alias.name) for alias in node.names]
            else:
                continue
            yield from (target for target in found if target.split(".")[0] == "repro")

    pending = list(REACH_ROOTS)
    for path in [*REPO_ROOT.glob("examples/*.py"), *REPO_ROOT.glob("perfbench/*.py")]:
        pending.extend(targets(ast.parse(path.read_text(), str(path)), ""))
    reached = set()
    while pending:
        module = pending.pop()
        if module in trees and module not in reached:
            reached.add(module)
            pending.extend(targets(trees[module], module))
    unreached = sorted(set(trees) - packages - reached - UNREACHED_ALLOWED)
    assert unreached == [], f"src modules no root reaches: {unreached}"
