"""Host-speed probes: how fast each CPU under a run is, moment by moment.

    python3 perfbench/hostspeed.py --cpu 1     (started by run.py)

On a shared host a vCPU runs up to twice as slow while another tenant
keeps the other hyperthread of its physical core busy, and the share of
time that happens drifts over minutes, so a window's wall time measures
the host as much as the program.  One probe process is pinned to each
CPU the samples use: every ``INTERVAL_S`` it runs a fixed pure-Python
kernel once untimed, to refill the caches the sleep and the samples
emptied, then times it on its own thread CPU clock (time spent
preempted does not count) and records ``(monotonic_ns, kernel_ns)``.
Any line or EOF on stdin stops it; it then prints its probes as one
JSON list and exits.

:func:`speed` turns the probes inside a span into the span's speed
relative to an uncontended core: per CPU, ``REFERENCE_NS / kernel_ns``
averaged over time, then averaged over the span's CPUs.  CPU time spent
in the span × speed is the CPU time it would have taken on uncontended
cores of the reference host.  CPU time rather than wall time, because
time a CPU spends on other processes, or the hypervisor on other
guests, stretches the wall time but slows neither clock.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Time between probes; one probe costs ~0.6% of it.
INTERVAL_S = 0.02
#: The timed kernel's floor on an uncontended core (other hyperthread
#: idle) of the reference host: 2-vCPU Xeon (Sapphire Rapids) KVM guest,
#: Python 3.11.  Contended, the same kernel takes about twice as long.
REFERENCE_NS = 80_000
#: Fewest probes a span is judged by; shorter spans borrow the nearest.
MIN_PROBES = 5

Probe = Tuple[int, int]
Probes = Dict[int, List[Probe]]


def kernel(n: int = 800) -> int:
    """Interpreter-bound work: dict, tuple and integer traffic."""
    table: dict = {}
    total = 0
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += key * 3
    return total


def probe() -> int:
    """Thread CPU time of one kernel run on warm caches, in ns."""
    kernel(200)
    start = time.thread_time_ns()
    kernel()
    return time.thread_time_ns() - start


def cpu_speed(probes: Sequence[Probe], start_ns: int, end_ns: int) -> float:
    """One CPU's mean speed over ``[start_ns, end_ns]``, 1.0 when uncontended."""
    inside = [p for p in probes if start_ns <= p[0] <= end_ns]
    if len(inside) < MIN_PROBES:
        middle = (start_ns + end_ns) // 2
        inside = sorted(probes, key=lambda p: abs(p[0] - middle))[:MIN_PROBES]
    if not inside:
        raise RuntimeError("host-speed probe recorded nothing")
    return sum(REFERENCE_NS / k for _, k in inside) / len(inside)


def speed(probes: Probes, cpus: Sequence[int], start_ns: int, end_ns: int) -> float:
    """Speed of a span run on ``cpus``: the mean of theirs."""
    return sum(cpu_speed(probes[cpu], start_ns, end_ns) for cpu in cpus) / len(cpus)


def pin(cpus: Sequence[int]) -> None:
    """Run this process (and what it starts from now on) on ``cpus`` only."""
    os.sched_setaffinity(0, set(cpus))


class HostSpeed:
    """One probe process per CPU, as a context manager owned by ``run.py``."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self.processes: Dict[int, subprocess.Popen] = {}
        try:
            for cpu in cpus:
                self.processes[cpu] = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), "--cpu", str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
            for process in self.processes.values():
                if process.stdout.readline().strip() != "ready":
                    raise RuntimeError("host-speed probe failed to start")
        except BaseException:
            self.close()
            raise

    def stop(self) -> Probes:
        """Stop probing; every CPU's probes, oldest first."""
        for process in self.processes.values():
            process.stdin.write("stop\n")
            process.stdin.flush()
        probes: Probes = {}
        for cpu, process in self.processes.items():
            out, _ = process.communicate(timeout=30)
            if process.returncode != 0:
                raise RuntimeError(f"host-speed probe exited with code {process.returncode}")
            probes[cpu] = [tuple(p) for p in json.loads(out)]
        return probes

    def close(self) -> None:
        for process in self.processes.values():
            if process.poll() is None:
                process.kill()
            process.wait()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cpu", type=int, required=True, help="the CPU to probe")
    args = parser.parse_args()
    pin([args.cpu])
    for _ in range(20):
        probe()  # warm-up: the first runs pay for allocation and caches
    print("ready", flush=True)
    probes: List[Probe] = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        probes.append((time.monotonic_ns(), probe()))
    print(json.dumps(probes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
