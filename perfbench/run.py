"""The repo benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each sample is a fresh process
(``sample.py``) that builds the workload's set-up and runs its window
once; samples repeat while another one fits in ``--seconds`` (at least
one), and every reported time is the median over them.  ``setup_s`` and
``window_s`` are CPU times of the sample's processes (so time a CPU
spends on other processes or other guests does not count), rescaled
to an uncontended core by the host-speed probes (``hostspeed.py``),
one pinned to each of the samples' CPUs for the whole run: set-ups and
serial windows run on one CPU, the pooled workload's window on all.
Window times are CPU × speed ** the workload's ``elasticity``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  Every sample checks its
outputs; any failed operation makes the command exit 1.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the full run record (run metadata and every sample).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))
from hostspeed import HostSpeed, Probes, speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Extra set-up-only samples, so ``setup_s`` is a median of at least three.
SETUP_ONLY_SAMPLES = 2
#: Wall-clock budget for the whole command; a sample still running
#: when it is spent is killed and the run fails.
DEADLINE_S = 170.0
#: Per-layer units that are times, so rescaled like ``window_s``.
TIME_UNITS = ("s", "us/call")


def declared_units(section: str) -> Dict[str, str]:
    """Unit of every metric of a ``BENCHMARK.json`` section, by name."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def source_digest() -> str:
    """sha256 over ``src/`` — identifies the program where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    # Only this checkout's own repository counts, not one enclosing it.
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def run_sample(
    args: argparse.Namespace,
    trace: int,
    started: float,
    cpus: List[int],
    setup_only: bool = False,
) -> Dict:
    """One fresh-process sample; raises RuntimeError if it crashed or hung."""
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    command = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
        "--scale", args.scale, "--cpus", ",".join(map(str, cpus)),
        "--launched", str(time.monotonic_ns()),
    ]
    if args.expected is not None:
        command += ["--expected", str(args.expected.resolve())]
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # The sample leads its own process group, pool workers included:
        # kill whatever of it is left (all of it on a timeout or when this
        # command is terminated), then reap.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if out is None:
        raise RuntimeError("sample exceeded the run's deadline")
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"sample exited with code {process.returncode}")
    return json.loads(lines[-1])


def collect(args: argparse.Namespace, cpus: List[int]) -> List[Dict]:
    """Samples until ``--seconds`` is spent; traced runs alternate 0/1."""
    command_started = time.monotonic()
    pattern = (0, 1) if args.trace else (0,)
    samples: List[Dict] = []
    with HostSpeed(cpus) as probe:
        if not args.trace:
            samples = [
                run_sample(args, 0, command_started, cpus, setup_only=True)
                for _ in range(SETUP_ONLY_SAMPLES)
            ]
        started = time.monotonic()
        windows = 0
        while True:
            for trace in pattern:
                sample = run_sample(args, trace, command_started, cpus)
                sample["traced"] = bool(trace)
                samples.append(sample)
                windows += 1
            elapsed = time.monotonic() - started
            per_round = elapsed * len(pattern) / windows
            if elapsed + per_round > args.seconds:
                break
        probes = probe.stop()
    elasticity = WORKLOADS[args.workload].elasticity
    for sample in samples:
        rescale(sample, probes, cpus, elasticity)
    return samples


def rescale(sample: Dict, probes: Probes, cpus: List[int], elasticity: float) -> None:
    """Add the sample's times at uncontended host speed to it."""
    sample["setup_s"] = sample["setup_cpu_s"] * speed(probes, cpus[-1:], *sample["setup_span"])
    if "window_span" not in sample:
        return
    sample["window_speed"] = speed(probes, cpus, *sample["window_span"])
    factor = sample["window_speed"] ** elasticity
    sample["window_s"] = sample["window_cpu_s"] * factor
    if "layers" in sample:
        units = declared_units("per_layer")
        for name, value in sample["layers"].items():
            if units.get(name) in TIME_UNITS:
                sample["layers"][name] = value * factor


def median(samples: List[Dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def consistent(samples: List[Dict], key: str) -> bool:
    """Fresh processes on the same inputs must produce the same outputs."""
    values = [s.get(key) for s in samples]
    if any(v is None for v in values):
        return False
    return all(math.isclose(v, values[0], rel_tol=1e-9, abs_tol=1e-12) for v in values)


def report(args: argparse.Namespace, samples: List[Dict]) -> Dict:
    setups = [s for s in samples if "window_s" not in s]
    samples = [s for s in samples if "window_s" in s]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    untraced = [s for s in samples if not s["traced"]]
    outputs_agree = all(
        consistent(samples, key) for key in ("tn_wan_peak_gbps", "tn_saving_vs_wrr_pct")
    )
    if not outputs_agree:
        # Counted as one more failed operation: the window's result
        # changed between identical runs.
        attempted += 1
        failed += 1
    metrics: Dict[str, Dict[str, object]] = {}
    if not args.trace:
        for name, unit in declared_units("end_to_end").items():
            measured = setups + untraced if name == "setup_s" else untraced
            if all(s.get(name) is not None for s in measured):
                metrics[name] = {"value": median(measured, name), "unit": unit}
    else:
        traced = [s for s in samples if s["traced"] and "layers" in s]
        # A window that raised has no layer numbers; its failure is reported.
        for name, unit in declared_units("per_layer").items() if traced else ():
            if name == "trace_overhead_pct":
                value = 100.0 * (median(traced, "window_s") / median(untraced, "window_s") - 1.0)
            elif name == "host.speed":
                value = median(traced, "window_speed")
            else:
                value = statistics.median(s["layers"][name] for s in traced)
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "toy"), default="full",
        help="toy: seconds-long inputs for the self-test",
    )
    parser.add_argument(
        "--expected", type=Path, default=None,
        help="pinned outputs to check seed 0 against (default: expected.json)",
    )
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    # Terminating the command unwinds through run_sample's cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    # Byte-compile once up front so no sample's set-up time pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    # Set-ups and serial windows run on one CPU; the pool's window on all.
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed if WORKLOADS[args.workload].pooled else allowed[-1:]
    try:
        samples = collect(args, cpus)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report(args, samples)
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for sample in samples:
        for op_id, errors in sample.get("errors", {}).items():
            print(f"FAILED {op_id}: {'; '.join(errors)}")
    print(f"ops_failed_frac {result['failed'] / result['attempted']:.6g}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "meta": {
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
            "cpu_count": os.cpu_count(),
            **samples[-1]["meta"],
        },
        "ops_failed_frac": result["failed"] / result["attempted"],
        "samples": samples,
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
