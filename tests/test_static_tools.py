"""Gated checks for the external static tools (ruff, mypy).

The repo vendors its own semantic linter (reprolint) so the tree can be
checked anywhere; ruff and mypy are optional dev tools — these tests
skip when the binaries are absent and act as the enforcement point in
CI, where both are installed.  The configs they run against are
committed (``ruff.toml``, ``mypy.ini``).
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

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
