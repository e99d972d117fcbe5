#!/usr/bin/env python3
"""One sha256 per stress-campaign day: a quick outcome check for planning changes.

Runs the six ``campaign_scenarios`` timelines through ``run_campaign_day``
on four pinned campaign setups and prints one digest per (setup, day,
timeline).  Each digest covers everything a campaign day produces: the
placement arrays of the replayed ``AssignmentBatch`` and its
``dc_codes``, the ``ControllerStats``, ``overflow_calls``,
``infeasible_rounds``, the evaluation's sum of peaks, and every
``ReplanEvent`` (its floats by ``repr``).  Index arrays are hashed by
value, as int64 (:func:`update_index_array`), so a change to their
storage dtype leaves the digests as they are.

The package is imported from ``--src DIR`` (the directory that holds
``repro``), so a parent commit extracted with ``git archive`` can be
compared with the working tree::

    python benchmarks/campaign_digest.py --src /path/to/parent/src > parent.txt
    python benchmarks/campaign_digest.py > change.txt   # this checkout's src
    diff parent.txt change.txt

The committed output is ``tests/golden/campaign_digest.txt``; CI diffs
a full run against it, and ``benchmarks/test_golden_digests.py``
recomputes the lines of the two small setups.  Regenerate it only by
redirecting this tool's output into it, and say why in CHANGES.md.

A run takes a few seconds; the emea 50k/top-200 day dominates it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

#: (label, builder, keyword arguments, campaign days).
SETUPS = (
    ("emea-50k-top200", "emea", {"daily_calls": 50_000, "top_n_configs": 200}, (30,)),
    ("emea-5k-top40", "emea", {"daily_calls": 5_000, "top_n_configs": 40}, (2, 30)),
    ("europe-6k-top60", "europe", {"daily_calls": 6_000, "top_n_configs": 60}, (2, 30)),
)

BATCH_ARRAYS = ("initial_dc_idx", "initial_option_idx", "final_dc_idx", "final_option_idx")


def update_index_array(digest, name: str, array) -> None:
    """Feed one integer index array to ``digest`` by value: its int64
    copy, under the int64 dtype string, so the digest does not depend
    on the dtype the array is stored in (for int64 input it is the
    array's own bytes)."""
    wide = np.ascontiguousarray(array, dtype=np.int64)
    digest.update(f"{name}{wide.dtype.str}{wide.shape}".encode())
    digest.update(wide.tobytes())


def _build(name: str, sizes: dict):
    if name == "europe":
        from repro.core.titan_next import build_europe_setup

        return build_europe_setup(**sizes)
    from repro.scenarios.factory import build_scenario

    return build_scenario(name, **sizes)


def _event_text(event) -> str:
    peaks = repr(event.sum_of_peaks) if event.sum_of_peaks is not None else "None"
    return f"{event.slot}|{event.solved}|{peaks}|{event.columns}"


def campaign_digest(result) -> str:
    """sha256 over one ``StressCampaignResult``'s outputs."""
    digest = hashlib.sha256()
    for name in BATCH_ARRAYS:
        update_index_array(digest, name, getattr(result.batch, name))
    stats = result.stats
    digest.update(repr(tuple(result.batch.dc_codes)).encode())
    digest.update(
        f"{stats.calls}|{stats.dc_migrations}|{stats.option_migrations}|{stats.unplanned}".encode()
    )
    digest.update(f"{result.overflow_calls!r}|{result.infeasible_rounds}".encode())
    digest.update(repr(result.evaluation.sum_of_peaks_gbps).encode())
    for event in result.replan_events:
        digest.update(_event_text(event).encode())
    return digest.hexdigest()


def lines(setups=SETUPS):
    """One ``<label> day<N> <timeline> <sha256>`` line per campaign day
    of ``setups`` (rows of :data:`SETUPS`)."""
    from repro.core.stress import campaign_scenarios, run_campaign_day

    for label, name, sizes, days in setups:
        setup = _build(name, sizes)
        for day in days:
            for timeline_name, timeline in campaign_scenarios(setup).items():
                result = run_campaign_day(setup, timeline, day=day)
                yield f"{label} day{day} {timeline_name} {campaign_digest(result)}"


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
