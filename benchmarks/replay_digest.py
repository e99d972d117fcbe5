#!/usr/bin/env python3
"""One sha256 per (setup, controller) replay: a quick outcome check for replay changes.

Replays one day-30 trace (seed 71) through the four controllers' batch
``process_table`` paths on three pinned setups and prints one digest per
(setup, controller).  Each digest covers the four index arrays of the
returned ``AssignmentBatch``, its ``dc_codes``, ``repr`` of the
controller's ``ControllerStats`` and, for the capacity-tracked
baselines (WRR, LF), the tracker's usage array.  Titan-Next replays the
plan ``plan_day`` solves on the day's Holt-Winters forecast.  The
controllers take the seeds ``run_prediction_day`` gives them for trace
seed 71.

The package is imported from ``--src DIR`` (the directory that holds
``repro``), so a parent commit extracted with ``git archive`` can be
compared with the working tree::

    python benchmarks/replay_digest.py --src /path/to/parent/src > parent.txt
    python benchmarks/replay_digest.py > change.txt   # this checkout's src
    diff parent.txt change.txt

A run takes a few seconds; the Europe 1M-call day dominates it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from campaign_digest import BATCH_ARRAYS, _build

#: (label, builder, keyword arguments).
SETUPS = (
    ("europe-1m-top100", "europe", {"daily_calls": 1_000_000, "top_n_configs": 100}),
    ("global-50k-top200", "global", {"daily_calls": 50_000, "top_n_configs": 200}),
    ("emea-50k-top200", "emea", {"daily_calls": 50_000, "top_n_configs": 200}),
)

DAY = 30
TRACE_SEED = 71


def replay_digest(controller, batch) -> str:
    """sha256 over one replay's placements, stats and tracker usage."""
    digest = hashlib.sha256()
    for name in BATCH_ARRAYS:
        array = getattr(batch, name)
        digest.update(f"{name}{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    digest.update(repr(tuple(batch.dc_codes)).encode())
    digest.update(repr(controller.stats).encode())
    tracker = getattr(controller, "tracker", None)
    if tracker is not None:
        usage = tracker._usage
        digest.update(f"usage{usage.dtype.str}{usage.shape}".encode())
        digest.update(usage.tobytes())
    return digest.hexdigest()


def _controllers(setup, plan):
    from repro.core.controller import (
        FirstJoinerLf,
        FirstJoinerTitan,
        FirstJoinerWrr,
        TitanNextController,
    )
    from repro.core.plan import OfflinePlan

    scenario = setup.scenario
    return (
        ("wrr", FirstJoinerWrr(scenario, seed=TRACE_SEED + 2)),
        ("lf", FirstJoinerLf(scenario)),
        ("titan", FirstJoinerTitan(scenario, seed=TRACE_SEED + 3)),
        (
            "titan-next",
            TitanNextController(
                scenario, OfflinePlan.from_assignment(plan), seed=TRACE_SEED + 1
            ),
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="directory that holds the repro package (default: this checkout's src)",
    )
    args = parser.parse_args(argv)
    if not (args.src / "repro").is_dir():
        parser.error(f"no repro package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))

    import repro
    from repro.core.titan_next import plan_day, predicted_demand_for_day
    from repro.workload.traces import TraceGenerator

    print(f"repro from {Path(repro.__file__).resolve().parent}", file=sys.stderr)
    for label, name, sizes in SETUPS:
        setup = _build(name, sizes)
        table = TraceGenerator(
            setup.demand, top_n_configs=setup.top_n_configs, seed=TRACE_SEED
        ).table_for_day(DAY)
        plan = plan_day(setup, predicted_demand_for_day(setup, DAY), DAY)
        for policy, controller in _controllers(setup, plan):
            batch = controller.process_table(table)
            print(f"{label} day{DAY} {policy} {replay_digest(controller, batch)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
