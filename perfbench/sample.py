"""One benchmark sample: a fresh process builds a workload's set-up and runs its window.

Started by ``run.py``, never by hand::

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1 \\
        --cpus LIST --launched MONOTONIC_NS [--scale full|toy] [--expected PATH]

``--launched`` is the parent's ``time.monotonic_ns()`` just before it
started this interpreter, so the set-up span covers interpreter start,
importing ``repro`` and building the scenario.  The set-up runs on the
last CPU of ``--cpus`` and the window on all of them, the CPUs the run's
host-speed probes share.  The window runs with the layer wrappers
installed only under ``--trace 1``.  The last line of standard output
is one JSON object describing the sample: CPU and wall times and the
monotonic spans they cover, which ``run.py`` rescales by the probed
host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: ``available_workers()`` as the run sees it, before ``--cpus`` pins this process.
AVAILABLE_WORKERS = len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--expected", type=Path, default=None)
    parser.add_argument("--cpus", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from hostspeed import pin

    cpus = [int(c) for c in args.cpus.split(",")]
    pin(cpus[-1:])

    from workloads import WORKLOADS

    bench = WORKLOADS[args.workload]
    setup = bench.build_setup(args.scale)
    # Process CPU time counts from interpreter start.
    setup_cpu_s = time.process_time()
    setup_span = [args.launched, time.monotonic_ns()]
    setup_wall_s = (setup_span[1] - setup_span[0]) / 1e9
    setup_record = {
        "setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_wall_s, "setup_span": setup_span
    }
    if args.setup_only:
        print(json.dumps(setup_record))
        return 0

    from layers import Recorder, children_cpu_s, traced

    pin(cpus)  # pool workers inherit it
    recorder = Recorder() if args.trace else None
    cpu_before = children_cpu_s()
    own_cpu_before = time.process_time()
    outcome = None
    window_span = [time.monotonic_ns(), 0]
    try:
        with traced(recorder) if recorder is not None else contextlib.nullcontext():
            outcome = bench.run(setup, args.scale, args.seed)
    except Exception:
        # Every operation of a window that raised counts as failed.
        traceback.print_exc()
    window_span[1] = time.monotonic_ns()
    window_wall_s = (window_span[1] - window_span[0]) / 1e9
    own_cpu_s = time.process_time() - own_cpu_before
    # Pool workers are reaped inside the window, so their CPU shows here.
    worker_cpu_s = children_cpu_s() - cpu_before
    rss_mb = peak_rss_mb()

    from checks import EXPECTED_PATH, check, load_expected
    from workloads import policy_saving_pct

    planned = bench.operations(bench.sizes(args.scale))
    sample = {
        **setup_record,
        "window_cpu_s": own_cpu_s + worker_cpu_s,
        "window_wall_s": window_wall_s,
        "window_span": window_span,
        "peak_rss_mb": rss_mb,
        "attempted": planned,
        "failed": planned,
        "errors": {"window": ["raised (traceback on stderr)"]},
    }
    if outcome is not None:
        expected = None
        if args.seed == 0:
            expected = load_expected(args.expected or EXPECTED_PATH, bench.name, args.scale)
        report = check(outcome.operations, expected)
        sample["errors"] = {op_id: errors for op_id, errors in report.items() if errors}
        sample["attempted"] = len(report)
        sample["failed"] = len(sample["errors"])
        sample["tn_wan_peak_gbps"] = sum(
            op.evaluation.sum_of_peaks_gbps
            for op in outcome.operations
            if op.policy == "titan-next"
        )
        sample["tn_saving_vs_wrr_pct"] = policy_saving_pct(outcome.operations)
        if recorder is not None:
            recorder.counts.update(outcome.layer_counts)
            sample["layers"] = recorder.metrics(window_wall_s, worker_cpu_s)

    import numpy
    import scipy

    sample["meta"] = {
        "available_workers": AVAILABLE_WORKERS,
        "cpus": args.cpus,
        "workers_used": bench.workers(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
