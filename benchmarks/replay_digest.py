#!/usr/bin/env python3
"""One sha256 per (setup, controller) replay: a quick outcome check for replay changes.

Replays one day-30 trace (seed 71) through the four controllers'
``process_table`` on five pinned setups and prints one digest per
(setup, controller).  Each digest covers the four index arrays of the
returned ``AssignmentBatch``, its ``dc_codes``, ``repr`` of the
controller's ``ControllerStats`` and, for the capacity-tracked
baselines (WRR, LF), the tracker's usage array.  Titan-Next replays the
plan ``plan_day`` solves on the day's Holt-Winters forecast.  The
controllers take the seeds ``run_prediction_day`` gives them for trace
seed 71.  Before them, one ``<label> day30 table`` line per setup
digests the trace itself: the ``CallTable``'s four columns, its
``id_offset`` and its config tuple.  Index arrays are hashed by value,
as int64, so a change to their storage dtype leaves every digest as it
is.

The package is imported from ``--src DIR`` (the directory that holds
``repro``), so a parent commit extracted with ``git archive`` can be
compared with the working tree::

    python benchmarks/replay_digest.py --src /path/to/parent/src > parent.txt
    python benchmarks/replay_digest.py > change.txt   # this checkout's src
    diff parent.txt change.txt

The committed output is ``tests/golden/replay_digest.txt``; CI diffs a
full run against it, and ``benchmarks/test_golden_digests.py``
recomputes the lines of the two small setups.  Regenerate it only by
redirecting this tool's output into it, and say why in CHANGES.md.

A run takes a few seconds; the Europe 1M-call day dominates it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from campaign_digest import BATCH_ARRAYS, _build, update_index_array

#: (label, builder, keyword arguments).
SETUPS = (
    ("europe-1m-top100", "europe", {"daily_calls": 1_000_000, "top_n_configs": 100}),
    ("global-50k-top200", "global", {"daily_calls": 50_000, "top_n_configs": 200}),
    ("emea-50k-top200", "emea", {"daily_calls": 50_000, "top_n_configs": 200}),
    ("europe-6k-top60", "europe", {"daily_calls": 6_000, "top_n_configs": 60}),
    ("emea-5k-top40", "emea", {"daily_calls": 5_000, "top_n_configs": 40}),
)

DAY = 30
TRACE_SEED = 71

TABLE_ARRAYS = ("config_idx", "start_slot", "duration_slots", "first_joiner_idx")


def table_digest(table) -> str:
    """sha256 over one trace's columns, id offset and configs."""
    digest = hashlib.sha256()
    for name in TABLE_ARRAYS:
        update_index_array(digest, name, getattr(table, name))
    digest.update(f"{table.id_offset}|{list(map(str, table.configs))}".encode())
    return digest.hexdigest()


def replay_digest(controller, batch) -> str:
    """sha256 over one replay's placements, stats and tracker usage."""
    digest = hashlib.sha256()
    for name in BATCH_ARRAYS:
        update_index_array(digest, name, getattr(batch, name))
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


def lines(setups=SETUPS):
    """One ``<label> day30 table <sha256>`` line per setup of ``setups``
    (rows of :data:`SETUPS`), then one ``<label> day30 <policy>
    <sha256>`` line per controller."""
    from repro.core.titan_next import plan_day, predicted_demand_for_day
    from repro.workload.traces import TraceGenerator

    for label, name, sizes in setups:
        setup = _build(name, sizes)
        table = TraceGenerator(
            setup.demand, top_n_configs=setup.top_n_configs, seed=TRACE_SEED
        ).table_for_day(DAY)
        yield f"{label} day{DAY} table {table_digest(table)}"
        plan = plan_day(setup, predicted_demand_for_day(setup, DAY), DAY)
        for policy, controller in _controllers(setup, plan):
            batch = controller.process_table(table)
            yield f"{label} day{DAY} {policy} {replay_digest(controller, batch)}"


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

    print(f"repro from {Path(repro.__file__).resolve().parent}", file=sys.stderr)
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
