"""Parallel sweep speed — multi-worker day fan-out vs the serial loop.

On a high-volume multi-day §8 window, fanning the
per-day forecast and replay phases over 4 process workers must cut
wall-clock by at least 2x versus the serial loop (``workers=1``, the
pinned reference path) — while reproducing the serial results exactly.
Only the setup's ``PlanCache`` solve loop (one loaded HiGHS model,
each day solved from the slack basis) stays serial, so the window is sized so
per-day replay dominates planning (Amdahl).

The fan-out's result channel: at millions of calls per day a pooled
sweep spends much of its time pickling every day's full tables back
to the parent.  ``return_tables=False`` ships compact ``DaySummary``
rows instead, and a summary must pickle at least 10x smaller than the
full result it summarizes.  Both store their index columns narrow:
on the 55k-call day below the summary pickles to ~21 kB and the full
result to ~499 kB, 23.8x.  (Measured on a 2-vCPU host at 1M
calls/day x 4 days, Europe top-100, four policies scored in the pool,
on 2 workers: the compact channel used 4.0-4.8 CPU-s and 304 MiB peak
RSS against 4.2-4.3 CPU-s and 353-365 MiB with full results, so with
narrow columns it saves memory, not CPU.  Setup shipping is
~0.2-0.3 MB per worker and not worth a shared-memory arena.)

Needs real CPUs: the speedup pin is skipped when fewer than 4 are
available to this process (the nightly CI runners have them; a 1-core
sandbox cannot physically speed anything up).  The IPC-reduction pin
is core-count independent and always runs.
"""

import pickle
import resource
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.sweep import (
    SummaryDayResult,
    SweepRunner,
    available_workers,
    summarize_day_result,
)
from repro.core.titan_next import build_europe_setup
from tests.test_sweep_parallel import titan_next_days

pytestmark = pytest.mark.slow

REQUIRED_SWEEP_SPEEDUP = 2.0
REQUIRED_IPC_REDUCTION = 10.0
WORKERS = 4


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set (ru_maxrss is KiB on Linux)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
#: Wed..Fri next week, 10 days: enough per-day replay work to amortize
#: pool spawn and keep the serial planning loop a small Amdahl slice.
DAYS = list(range(30, 40))


@pytest.fixture(scope="module")
def sweep_setup():
    """A replay-heavy scenario: 120k calls/day keeps the parallel phase
    (trace synthesis + controller replay) well above the serial LP loop."""
    return build_europe_setup(daily_calls=120_000, top_n_configs=60)


@pytest.mark.skipif(
    available_workers() < WORKERS,
    reason=f"speedup pin needs >= {WORKERS} CPUs available to this process",
)
def test_parallel_sweep_is_2x_faster(sweep_setup, record_bench):
    start = time.perf_counter()
    serial = titan_next_days(SweepRunner(sweep_setup, workers=1), DAYS)
    t_serial = time.perf_counter() - start

    # The serial run filled the setup's plan cache memo; plan the pooled
    # run on a cold copy of the setup so both sides run HiGHS.
    pooled_setup = replace(sweep_setup)
    start = time.perf_counter()
    parallel = titan_next_days(SweepRunner(pooled_setup, workers=WORKERS), DAYS)
    t_parallel = time.perf_counter() - start

    # Byte-identical results first — a fast wrong answer pins nothing.
    for day in DAYS:
        assert parallel[day].stats == serial[day].stats
        a, b = parallel[day].assignments, serial[day].assignments
        assert np.array_equal(a.final_dc_idx, b.final_dc_idx)
        assert np.array_equal(a.final_option_idx, b.final_option_idx)
        assert np.array_equal(a.initial_dc_idx, b.initial_dc_idx)

    speedup = t_serial / t_parallel
    calls = sum(r.stats.calls for r in serial.values())
    print(
        f"\nprediction sweep over {len(DAYS)} days ({calls} calls): "
        f"serial {t_serial:.2f} s, {WORKERS} workers {t_parallel:.2f} s "
        f"-> {speedup:.2f}x"
    )
    record_bench(
        days=len(DAYS),
        calls=int(calls),
        workers=WORKERS,
        t_serial_s=round(t_serial, 3),
        t_parallel_s=round(t_parallel, 3),
        speedup=round(speedup, 3),
        required_speedup=REQUIRED_SWEEP_SPEEDUP,
    )
    assert speedup >= REQUIRED_SWEEP_SPEEDUP


def test_compact_summary_ipc_reduction(sweep_setup, record_bench):
    """The worker→parent result channel, core-count independent.

    A ``DaySummary`` (distinct realized rows + stats) must pickle at
    least 10x smaller than the full ``PredictionDayResult`` it
    summarizes — measured on the same day, and checked equivalent
    before the size pin."""
    day = DAYS[0]
    full = titan_next_days(SweepRunner(sweep_setup, workers=1), [day])[day]
    summary = summarize_day_result(sweep_setup.scenario, full, day, 71)

    full_bytes = len(pickle.dumps(full, protocol=pickle.HIGHEST_PROTOCOL))
    compact_bytes = len(pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL))
    reduction = full_bytes / compact_bytes

    # The summary must still answer the realized table bit-for-bit.
    runner = SweepRunner(sweep_setup, workers=1)
    wrapped = SummaryDayResult(summary, runner._state, runner._canonical_configs())
    assert wrapped.realized_table() == full.realized_table()
    assert wrapped.stats == full.stats

    print(
        f"\ncompact summary: full result {full_bytes / 1e6:.2f} MB, "
        f"summary {compact_bytes / 1e3:.1f} kB -> {reduction:.0f}x smaller; "
        f"peak RSS {peak_rss_mb()} MB"
    )
    record_bench(
        calls=int(full.stats.calls),
        full_result_bytes=full_bytes,
        ipc_bytes_per_day=compact_bytes,
        ipc_reduction=round(reduction, 1),
        required_reduction=REQUIRED_IPC_REDUCTION,
        peak_rss_mb=peak_rss_mb(),
    )
    assert reduction >= REQUIRED_IPC_REDUCTION


def test_parallel_sweep_reproduces_serial_results(sweep_setup):
    """The determinism half of the pin, runnable on any core count.

    A short window keeps this affordable even single-core; the full
    equivalence matrix lives in tests/test_sweep_parallel.py on the
    small setup.
    """
    days = DAYS[:3]
    serial = titan_next_days(SweepRunner(sweep_setup, workers=1), days)
    parallel = titan_next_days(SweepRunner(sweep_setup, workers=2), days)
    for day in days:
        assert parallel[day].stats == serial[day].stats
        assert parallel[day].realized_table() == serial[day].realized_table()


def test_worker_pool_overhead_is_bounded(sweep_setup):
    """Process fan-out must never catastrophically regress a window.

    Even on one core, pool spawn + setup pickling + result shipping
    for an 8-day window has to stay within 3x of the serial loop —
    catches accidental per-task setup re-pickling or eval-cache
    shipping (the payload is pickled once per pool, not per day).
    """
    start = time.perf_counter()
    titan_next_days(SweepRunner(sweep_setup, workers=1), DAYS)
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    titan_next_days(SweepRunner(sweep_setup, workers=2), DAYS)
    t_parallel = time.perf_counter() - start

    print(f"\noverhead check: serial {t_serial:.2f} s, 2 workers {t_parallel:.2f} s")
    assert t_parallel < t_serial * 3.0
