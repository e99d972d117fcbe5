"""Per-layer timing for traced benchmark runs.

The program under test has no spans of its own, so a traced run wraps
the public entry point of each layer from the outside: :func:`traced`
replaces a fixed set of class and module attributes with timing
wrappers and puts the originals back on exit.  Untraced runs never
install anything, so their end-to-end numbers carry no tracing cost.

Times are *self* times: a span's duration minus the part of it that
nested spans cover (``RollingPlanner.replan`` minus the
``PlanCache.solve_day`` it calls, ``SweepRunner.replay_days`` minus the
trace, replay and scoring it runs inline on a serial runner).  The sum
of all self times is therefore the share of the window some layer
accounts for.  The layer names are the ones later in-program spans
must keep.
"""

from __future__ import annotations

import contextlib
import functools
import pickle
import resource
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from workloads import ALL_POLICIES


class _ByteCounter:
    """A write-only file that keeps just the number of bytes written."""

    def __init__(self) -> None:
        self.n = 0

    def write(self, data) -> int:
        size = memoryview(data).nbytes  # large frames arrive as PickleBuffer
        self.n += size
        return size


def pickled_size(obj: object) -> int:
    """Bytes ``obj`` takes as a highest-protocol pickle, without holding them."""
    counter = _ByteCounter()
    pickle.dump(obj, counter, protocol=pickle.HIGHEST_PROTOCOL)
    return counter.n


def children_cpu_s() -> float:
    """User + system CPU of every reaped child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Recorder:
    """Self times, call counts and layer counters of one traced window."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Inclusive wall time per layer (the pool phases' "wall").
        self.total_s: Dict[str, float] = defaultdict(float)
        self.cold_solves: List[float] = []
        self.hot_solves: List[float] = []
        self.lp_shape: Tuple[int, int] = (0, 0)
        self.pool_workers = 0
        self._fault_logs: Dict[int, int] = {}
        self._returned: List[Tuple[object, int]] = []
        #: One accumulator per open span: the time its children covered.
        self._stack: List[List[float]] = []

    def wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as ``layer``; ``after(args, result)`` updates counters."""

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.self_s[layer] += elapsed - children[0]
                self.total_s[layer] += elapsed
                self.calls[layer] += 1
            if after is not None:
                after(args, result, elapsed)
            return result

        return timed

    # -- counter hooks (run after the wrapped call returned) -----------------

    def _lp_built(self, args: tuple, result: object, elapsed: float) -> None:
        cache = args[0]
        columns, rows = self.lp_shape
        self.lp_shape = (max(columns, cache.num_variables), max(rows, cache.num_constraints))

    def _lp_solved(self, args: tuple, result: object, elapsed: float) -> None:
        # PlanCache counts its own solves: the first one of an instance
        # starts from no basis, every later one is hot-started.
        (self.cold_solves if args[0].solves == 1 else self.hot_solves).append(elapsed)

    def _replanned(self, args: tuple, result: object, elapsed: float) -> None:
        if not result:
            self.counts["replan.infeasible"] += 1

    def _traced(self, args: tuple, result: object, elapsed: float) -> None:
        self.counts["trace.calls"] += len(result)

    def _replayed(self, policy: str) -> Callable:
        def after(args: tuple, result: object, elapsed: float) -> None:
            self.counts[f"replay.{policy}.calls"] += len(result)
            if policy == "titan-next":
                stats = args[0].stats
                self.counts["replay.titan-next.unplanned"] += stats.unplanned
                self.counts["replay.titan-next.dc_migrations"] += stats.dc_migrations

        return after

    def _pool_phase(self, returns_days: bool) -> Callable:
        def after(args: tuple, result: object, elapsed: float) -> None:
            runner = args[0]
            self.pool_workers = max(self.pool_workers, runner.workers)
            self._fault_logs[id(runner)] = len(runner.fault_log)
            if returns_days:
                self._returned.append((result, len(result)))

        return after

    # -- the wrapped attribute set -------------------------------------------

    def targets(self) -> List[Tuple[object, str, str, Optional[Callable]]]:
        """``(owner, attribute, layer, counter hook)`` for every timed entry point."""
        from repro.analysis import metrics
        from repro.core import controller, replanner, sweep, titan_next
        from repro.workload import traces

        return [
            (titan_next, "predicted_demand_for_day", "forecast", None),
            (titan_next.PlanCache, "__init__", "lp_build", self._lp_built),
            (titan_next.PlanCache, "solve_day", "lp_solve", self._lp_solved),
            (titan_next.PlanCache, "refresh_capacity_rhs", "capacity_refresh", None),
            (replanner.RollingPlanner, "replan", "replan", self._replanned),
            (traces.TraceGenerator, "table_for_day", "trace", self._traced),
            (controller.FirstJoinerWrr, "process_table", "replay.wrr", self._replayed("wrr")),
            (controller.FirstJoinerLf, "process_table", "replay.lf", self._replayed("lf")),
            (controller.FirstJoinerTitan, "process_table", "replay.titan", self._replayed("titan")),
            (
                controller.TitanNextController,
                "process_table",
                "replay.titan-next",
                self._replayed("titan-next"),
            ),
            (metrics, "evaluate_batch", "score", None),
            (sweep.SweepRunner, "forecast_days", "pool.forecast", self._pool_phase(False)),
            (sweep.SweepRunner, "replay_days", "pool.replay", self._pool_phase(True)),
        ]

    # -- results ---------------------------------------------------------------

    def metrics(self, window_s: float, worker_cpu_s: float) -> Dict[str, float]:
        """Every per-layer metric; layers the window never entered read 0."""

        def mean(values: List[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        solves = self.cold_solves + self.hot_solves
        out: Dict[str, float] = {
            "forecast.s": self.self_s["forecast"],
            "forecast.n": self.calls["forecast"],
            "lp_build.s": self.self_s["lp_build"],
            "lp_build.n": self.calls["lp_build"],
            "lp.columns": self.lp_shape[0],
            "lp.rows": self.lp_shape[1],
            "lp_solve.s": self.self_s["lp_solve"],
            "lp_solve.n": self.calls["lp_solve"],
            "lp_solve.cold_s": mean(self.cold_solves),
            "lp_solve.hot_mean_s": mean(self.hot_solves),
            "lp_solve.max_s": max(solves, default=0.0),
            "replan.self_s": self.self_s["replan"],
            "replan.n": self.calls["replan"],
            "replan.infeasible": self.counts["replan.infeasible"],
            "capacity_refresh.s": self.self_s["capacity_refresh"],
            "stress.overflow_calls": self.counts["stress.overflow_calls"],
            "trace.s": self.self_s["trace"],
            "trace.calls": self.counts["trace.calls"],
        }
        for policy in ALL_POLICIES:
            seconds = self.self_s[f"replay.{policy}"]
            calls = self.counts[f"replay.{policy}.calls"]
            out[f"replay.{policy}.s"] = seconds
            out[f"replay.{policy}.us_per_call"] = 1e6 * seconds / calls if calls else 0.0
        out["replay.titan-next.unplanned"] = self.counts["replay.titan-next.unplanned"]
        out["replay.titan-next.dc_migrations"] = self.counts["replay.titan-next.dc_migrations"]
        out["score.s"] = self.self_s["score"]
        out["score.n"] = self.calls["score"]

        days = sum(n for _, n in self._returned)
        returned = sum(pickled_size(result) for result, _ in self._returned)
        phase_wall = self.total_s["pool.forecast"] + self.total_s["pool.replay"]
        capacity = self.pool_workers * phase_wall if self.pool_workers > 1 else 0.0
        out["pool.forecast_phase_s"] = self.self_s["pool.forecast"]
        out["pool.replay_phase_s"] = self.self_s["pool.replay"]
        out["pool.result_bytes_per_day"] = returned / days if days else 0.0
        out["pool.worker_cpu_s"] = worker_cpu_s
        out["pool.worker_busy_frac"] = worker_cpu_s / capacity if capacity else 0.0
        out["pool.retries"] = sum(self._fault_logs.values())
        covered = sum(self.self_s.values())
        out["layers.coverage_pct"] = 100.0 * covered / window_s if window_s > 0 else 0.0
        return out


@contextlib.contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder``'s wrappers for the duration of the block."""
    installed: List[Tuple[object, str, object]] = []
    try:
        for owner, name, layer, after in recorder.targets():
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            installed.append((owner, name, original))
            setattr(owner, name, recorder.wrap(layer, original, after))
        yield recorder
    finally:
        for owner, name, original in reversed(installed):
            setattr(owner, name, original)
