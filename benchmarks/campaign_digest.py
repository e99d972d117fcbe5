#!/usr/bin/env python3
"""One sha256 per stress-campaign day: a quick outcome check for planning changes.

Runs the six ``campaign_scenarios`` timelines through ``run_campaign_day``
on four pinned campaign setups and prints one digest per (setup, day,
timeline).  Each digest covers everything a campaign day produces: the
placement arrays of the replayed ``AssignmentBatch`` and its
``dc_codes``, the ``ControllerStats``, ``overflow_calls``,
``infeasible_rounds``, the evaluation's sum of peaks, and every
``ReplanEvent`` (its floats by ``repr``).

The package is imported from ``--src DIR`` (the directory that holds
``repro``), so a parent commit extracted with ``git archive`` can be
compared with the working tree::

    python benchmarks/campaign_digest.py --src /path/to/parent/src > parent.txt
    python benchmarks/campaign_digest.py > change.txt   # this checkout's src
    diff parent.txt change.txt

A run takes a few seconds; the emea 50k/top-200 day dominates it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

#: (label, builder, keyword arguments, campaign days).
SETUPS = (
    ("emea-50k-top200", "emea", {"daily_calls": 50_000, "top_n_configs": 200}, (30,)),
    ("emea-5k-top40", "emea", {"daily_calls": 5_000, "top_n_configs": 40}, (2, 30)),
    ("europe-6k-top60", "europe", {"daily_calls": 6_000, "top_n_configs": 60}, (2, 30)),
)

BATCH_ARRAYS = ("initial_dc_idx", "initial_option_idx", "final_dc_idx", "final_option_idx")


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
        array = getattr(result.batch, name)
        digest.update(f"{name}{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
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
    from repro.core.stress import campaign_scenarios, run_campaign_day

    print(f"repro from {Path(repro.__file__).resolve().parent}", file=sys.stderr)
    for label, name, sizes, days in SETUPS:
        setup = _build(name, sizes)
        for day in days:
            for timeline_name, timeline in campaign_scenarios(setup).items():
                result = run_campaign_day(setup, timeline, day=day)
                print(f"{label} day{day} {timeline_name} {campaign_digest(result)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
