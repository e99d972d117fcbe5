#!/usr/bin/env python3
"""Parallel sweep: a multi-day §8 window fanned across workers.

Plans a week of Titan-Next days through one cached LP (the serial
phase: one loaded HiGHS model, each day solved from the slack basis),
then replays and scores every (day, policy) pair on a process pool —
and verifies the fan-out reproduced the serial loop exactly, which the
counter-based Philox randomness guarantees by construction.

Also demonstrates the compact result channel (``return_tables=False``):
workers ship distinct-row day summaries back instead of full per-call
tables, and the streaming form (``iter_days`` with ``chunk_days``) that
keeps only one chunk of results alive at a time — both byte-identical
to the serial loop.  Exits with status 1 if any result differs.

Run:
    python examples/parallel_sweep.py
"""

import time

from repro.analysis.metrics import normalize_to
from repro.core.sweep import SweepRunner, available_workers
from repro.core.titan_next import build_europe_setup
from repro.experiments.eval_exps import weekday_label


def main() -> None:
    print("Building the intra-Europe evaluation scenario ...")
    setup = build_europe_setup(daily_calls=6_000, top_n_configs=60)
    days = list(range(30, 35))  # Wed..Sun, >= 4 weeks of forecast history
    workers = min(4, available_workers())
    print(f"  window  : days {days[0]}..{days[-1]}")
    print(f"  workers : {workers} (of {available_workers()} available CPUs)\n")

    serial = SweepRunner(setup, workers=1)
    start = time.perf_counter()
    reference = serial.run_prediction_window(days, evaluate=True)
    t_serial = time.perf_counter() - start
    print(f"serial sweep   : {t_serial:.2f} s")

    parallel = SweepRunner(setup, workers=workers)
    start = time.perf_counter()
    fanned = parallel.run_prediction_window(days, evaluate=True)
    t_parallel = time.perf_counter() - start
    print(f"parallel sweep : {t_parallel:.2f} s ({t_serial / t_parallel:.2f}x)\n")

    print(f"{'day':<14} {'wrr':>6} {'lf':>6} {'titan':>6} {'titan-next':>11}")
    for day in days:
        peaks = {name: r.evaluation.sum_of_peaks_gbps for name, r in fanned[day].items()}
        normalized = normalize_to(peaks, "wrr")
        print(
            f"{weekday_label(day) + f' (day {day})':<14} "
            f"{normalized['wrr']:>6.3f} {normalized['lf']:>6.3f} "
            f"{normalized['titan']:>6.3f} {normalized['titan-next']:>11.3f}"
        )

    start = time.perf_counter()
    compact = parallel.run_prediction_window(days, evaluate=True, return_tables=False)
    t_compact = time.perf_counter() - start
    print(f"\ncompact results : {t_compact:.2f} s (distinct-row day summaries)")

    print("streaming (chunk_days=2):", end=" ")
    streamed_days = []
    for day, _results in parallel.iter_days(
        days, evaluate=True, chunk_days=2, return_tables=False
    ):
        streamed_days.append(day)  # only ~one chunk of results is ever alive
    print(f"days arrived in order {streamed_days}")

    mismatches = 0
    for day in days:
        for name, ref in reference[day].items():
            for result in (fanned[day][name], compact[day][name]):
                if (
                    result.stats != ref.stats
                    or result.realized_table() != ref.realized_table()
                    or result.evaluation.sum_of_peaks_gbps != ref.evaluation.sum_of_peaks_gbps
                ):
                    mismatches += 1
    if streamed_days != days:
        mismatches += 1
    print(
        f"\nDeterminism check: {2 * len(days) * len(fanned[days[0]])} (day, policy) results "
        f"across both result channels, {mismatches} mismatches vs the serial loop."
    )
    if mismatches:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
