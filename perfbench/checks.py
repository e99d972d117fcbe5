"""Output checks: seed-independent invariants plus pinned expected values.

Every operation of a window is checked; one that fails any check (or
raised) counts as failed.  The invariants hold for any seed:

* every trace row is placed exactly once — the controller's batch is
  row-aligned with a freshly regenerated trace of the same inputs;
* DC and routing-option indices are in range;
* ``stats.calls`` equals the trace rows;
* scores are finite.

For seed 0 the operation's outputs must also equal the values pinned
in ``expected.json``: counts exactly, LP-derived numbers to a relative
1e-6 (the precision the decomposed planner reproduces plans to).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from workloads import Operation

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Relative tolerance on LP-derived (float) outputs.
REL_TOL = 1e-6

#: Output fields pinned per operation, and whether they are exact counts.
PINNED_FIELDS = {
    "sum_of_peaks_gbps": False,
    "calls": True,
    "dc_migrations": True,
    "option_migrations": True,
    "unplanned": True,
    "infeasible_rounds": True,
    "overflow_calls": False,
}


def observed(op: Operation) -> Dict[str, float]:
    """The pinned fields of one operation's outputs."""
    stats = op.stats
    values: Dict[str, float] = {
        "sum_of_peaks_gbps": float(op.evaluation.sum_of_peaks_gbps),
        "calls": int(stats.calls),
        "dc_migrations": int(stats.dc_migrations),
        "option_migrations": int(stats.option_migrations),
        "unplanned": int(stats.unplanned),
    }
    values.update(op.counts)
    return values


def invariant_errors(op: Operation, trace) -> List[str]:
    """What is wrong with ``op``'s outputs for the call ``trace`` it consumed."""
    errors: List[str] = []
    batch = op.batch
    table = batch.table
    n = len(trace)
    if len(table) != n or not (
        np.array_equal(table.config_idx, trace.config_idx)
        and np.array_equal(table.start_slot, trace.start_slot)
        and np.array_equal(table.duration_slots, trace.duration_slots)
    ):
        errors.append(f"placed table differs from the {n}-row trace")
    for name in ("initial_dc_idx", "final_dc_idx", "initial_option_idx", "final_option_idx"):
        column = getattr(batch, name)
        bound = len(batch.options) if "option" in name else len(batch.dc_codes)
        if len(column) != n:
            errors.append(f"{name} has {len(column)} rows for {n} calls")
        elif n and (column.min() < 0 or column.max() >= bound):
            errors.append(f"{name} out of range [0, {bound})")
    if op.stats.calls != n:
        errors.append(f"stats.calls {op.stats.calls} != {n} trace rows")
    evaluation = op.evaluation
    scores = (evaluation.sum_of_peaks_gbps, evaluation.mean_e2e_ms(), evaluation.total_calls)
    if not all(math.isfinite(float(v)) for v in scores):
        errors.append(f"non-finite score {scores}")
    return errors


def pinned_errors(op: Operation, expected: Optional[Dict[str, float]]) -> List[str]:
    if expected is None:
        return [f"no pinned values for {op.op_id}"]
    errors = []
    actual = observed(op)
    for name, exact in PINNED_FIELDS.items():
        if name not in expected and name not in actual:
            continue
        want, got = expected.get(name), actual.get(name)
        if want is None or got is None:
            errors.append(f"{name}: expected {want}, got {got}")
        elif exact and int(got) != int(want):
            errors.append(f"{name}: expected {want}, got {got}")
        elif not exact and not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-9):
            errors.append(f"{name}: expected {want!r}, got {got!r}")
    return errors


def load_expected(path: Path, workload: str, scale: str) -> Dict[str, Dict[str, float]]:
    with open(path) as handle:
        return json.load(handle).get(scale, {}).get(workload, {})


def check(
    operations: List[Operation], expected: Optional[Dict[str, Dict[str, float]]]
) -> Dict[str, List[str]]:
    """``{op_id: errors}`` for every operation; an empty list passed.

    ``expected=None`` runs the invariants only (any seed but 0).
    """
    report = {}
    traces: Dict[object, object] = {}  # operations of one day share a trace
    for op in operations:
        if op.trace not in traces:
            traces[op.trace] = op.trace()
        errors = invariant_errors(op, traces[op.trace])
        if expected is not None:
            errors += pinned_errors(op, expected.get(op.op_id))
        report[op.op_id] = errors
    return report
