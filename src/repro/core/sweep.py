"""Parallel sweep engine: fan §7/§8 day work across workers.

A multi-day evaluation sweep plans every day through
:func:`~repro.core.titan_next.plan_day`, i.e. through the setup's one
:class:`~repro.core.titan_next.PlanCache`: one HiGHS model, built on
the setup's first plan over its reduced config set and kept loaded.
Each day installs its right-hand sides and solves from the slack basis,
so no state carries from day to day and a day's plan depends only on
its own demand — it is the plan
:func:`~repro.core.titan_next.run_prediction_day` solves for that day.
The rest of the day — Holt-Winters forecasting, trace synthesis,
controller replay, and §7.1 scoring — is a pure function of
``(setup, day, seed)`` because every random draw in the pipeline is
counter-based Philox keyed on ``(seed, config, slot)``: no generator
state crosses day boundaries, so per-day work can run in any order, on
any worker, and reproduce the serial loop byte for byte.

:class:`SweepRunner` splits a sweep accordingly:

1. **parallel forecast phase** — per-day predicted demand tables fanned
   over the pool;
2. **serial planning phase** — the setup's :class:`PlanCache` loop in
   the parent process (one loaded model serves every day; the plans
   would be the same in any order, so fanning this phase out is
   possible but not done);
3. **parallel replay phase** — per-day trace synthesis +
   ``process_table`` controller replay + (optionally)
   ``evaluate_batch`` scoring fanned over the pool.

``workers`` alone picks the path: ``workers=1`` runs inline and *is*
the pinned serial reference path; ``workers > 1`` runs a process pool
whose workers each rebuild their :class:`EuropeSetup` from one pickled
payload in the pool initializer, so ``Scenario.eval_tables`` /
trace-generator caches are worker-local (the id-keyed evaluation cache
must never travel between processes —
:class:`~repro.core.scenario.Scenario` drops it on pickle).

**Fault tolerance.** Long sweeps die to the environment, not the math:
a worker OOM-killed mid-replay collapses the whole
``ProcessPoolExecutor`` (``BrokenProcessPool``), one hung solve stalls
the window forever, and a transient error in day 93 of a 100-day sweep
throws away 92 finished days.  The runner therefore gathers pooled
results through a supervision loop governed by :class:`FaultPolicy`:

* a task that *raises* is retried in place with exponential backoff,
  up to ``max_retries`` — retries are safe because per-day work is a
  pure function of the task tuple (the Philox counter-keying
  contract), so a retried day is byte-identical to a first-try day.
  The exception is a ``ValueError`` or
  :class:`~repro.core.lp.PlanningError`: those come from the task's
  own inputs, a retry would repeat them byte for byte, so the pool is
  killed and the error re-raised as the serial path raises it;
* a task that exceeds ``timeout_s`` has its pool killed and rebuilt,
  and every incomplete task is resubmitted (only the hung task's
  attempt counter advances);
* a broken pool (worker killed by a signal/OOM) is rebuilt and all
  incomplete tasks resubmitted, up to ``max_pool_rebuilds`` per pool;
* tasks that exhaust their retries are reported as structured
  :class:`SweepFailure` records on the raised :class:`SweepError` —
  naming the phase, day, attempt count, and last error.

``inject_fault=`` accepts a picklable callable (see
:class:`KillWorkerFault`, :class:`HangFault`) invoked worker-side
before every pooled task — the deterministic chaos hook the recovery
tests drive.  The inline ``workers=1`` path never injects and never
retries: it *is* the reference the recovered runs are compared to.

**Result channel.** ``return_tables=False`` (per call, on
:meth:`SweepRunner.replay_days` and the windows built on it) makes
per-day replay tasks return a SoA :class:`DaySummary` (realized-table
rows + ``ControllerStats`` + the optional in-pool
``EvaluationResult``) instead of the full ``CallTable`` /
``AssignmentBatch``; the caller gets a :class:`SummaryDayResult`,
which reconstructs the full tables on demand by re-running the day
(exact by the Philox counter-keying contract).  The default
``return_tables=True`` ships full results and stays the pinned
byte-equivalence reference.

**Streaming.** :meth:`SweepRunner.iter_days` / ``chunk_days=`` plan
and replay a long window chunk by chunk over one pool and the setup's
one planning structure, so a 52-week sweep holds O(chunk) day results
in memory while reproducing the monolithic run byte for byte.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..workload.configs import CallConfig
from ..workload.demand import SLOTS_PER_DAY
from ..workload.traces import TraceGenerator
from .lp import AssignmentTable, PlanningError
from .scenario import EVAL_OPTION_ORDER

if TYPE_CHECKING:
    from ..analysis.metrics import EvaluationResult
    from .controller import AssignmentBatch
    from .scenario import Scenario
    from .titan_next import EuropeSetup, PredictionDayResult

#: Demand/forecast table: ``(slot of day, config) -> call count``.
DemandTable = Dict[Tuple[int, CallConfig], float]

#: One §7 oracle task: (day, demand, cached titan-next plan, policies).
OracleTask = Tuple[int, DemandTable, Optional[AssignmentTable], Tuple[str, ...]]

#: Baseline first-joiner policies every §8 window can replay.
PREDICTION_POLICIES: Tuple[str, ...] = ("wrr", "lf", "titan", "titan-next")


def available_workers() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _resolve_workers(workers: int | str | None) -> int:
    if workers is None or workers == "auto":
        return available_workers()
    count = int(workers)
    if count < 1:
        raise ValueError("workers must be >= 1 (or 'auto')")
    return count


# ---------------------------------------------------------------------------
# Fault tolerance: policy, failure reports, chaos injectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPolicy:
    """Supervision knobs for pooled sweep phases.

    ``timeout_s`` bounds how long the gatherer waits on any one task's
    result once it becomes the next task in order; ``None`` disables
    the hang watchdog.  ``max_retries`` is per task (exceptions and
    hangs both advance the attempt counter); ``max_pool_rebuilds``
    bounds kill-and-respawn cycles per pool, so a deterministic
    crasher cannot respawn workers forever.
    """

    max_retries: int = 2
    timeout_s: Optional[float] = None
    backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.backoff_s < 0 or self.backoff_multiplier < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_multiplier ** max(attempt - 1, 0)


@dataclass(frozen=True)
class SweepFailure:
    """Structured record of one task incident.

    Incidents that were *recovered* (a retry succeeded, a pool rebuild
    carried on) land in :attr:`SweepRunner.fault_log`; incidents that
    exhausted the retry budget ride the raised :class:`SweepError` as
    its ``failures``.
    """

    kind: str  #: task family: "forecast", "replay", "oracle"
    label: str  #: human-readable task identity, e.g. "replay:day=31"
    attempts: int  #: attempts so far for this task (1 + retries)
    error_type: str  #: the exception's class name (or "Timeout"/"BrokenPool")
    message: str  #: the exception's str()
    traceback: str = ""  #: formatted traceback, when one exists


class SweepError(RuntimeError):
    """A sweep phase gave up; ``failures`` lists the dead tasks."""

    def __init__(self, message: str, failures: Sequence[SweepFailure] = ()) -> None:
        super().__init__(message)
        self.failures: List[SweepFailure] = list(failures)


def _task_day(task: object) -> Optional[int]:
    """The day a task tuple targets, when its first element is one."""
    if isinstance(task, tuple) and task and isinstance(task[0], int):
        return task[0]
    return None


@dataclass(frozen=True)
class KillWorkerFault:
    """Chaos injector: hard-kill the worker running a chosen task.

    ``os._exit`` mimics an OOM-kill/SIGKILL — no cleanup, no exception,
    the pool just loses a process and every pending future breaks.
    Fires once (attempt 0 only), so the rebuilt pool's resubmission
    completes.
    """

    day: int
    kind: str = "replay"
    exit_code: int = 13

    def __call__(self, kind: str, task: object, attempt: int) -> None:
        if kind == self.kind and attempt == 0 and _task_day(task) == self.day:
            os._exit(self.exit_code)


@dataclass(frozen=True)
class FlakyTaskFault:
    """Chaos injector: raise a transient error on a task's first attempt.

    The mildest failure mode — the worker survives, the pool survives,
    only the task dies — exercising the in-place retry-with-backoff
    path rather than a pool rebuild.
    """

    day: int
    kind: str = "replay"
    message: str = "injected transient failure"

    def __call__(self, kind: str, task: object, attempt: int) -> None:
        if kind == self.kind and attempt == 0 and _task_day(task) == self.day:
            raise RuntimeError(f"{self.message} (day={self.day})")


@dataclass(frozen=True)
class HangFault:
    """Chaos injector: stall a chosen task far past any sane timeout.

    Sleeps ``seconds`` on attempt 0, simulating a wedged solver or
    deadlocked worker; the supervision loop's ``timeout_s`` watchdog
    must kill the pool and the resubmitted attempt runs clean.  The
    sleep is finite so an un-watched run still terminates.
    """

    day: int
    seconds: float = 60.0
    kind: str = "replay"

    def __call__(self, kind: str, task: object, attempt: int) -> None:
        if kind == self.kind and attempt == 0 and _task_day(task) == self.day:
            time.sleep(self.seconds)


# ---------------------------------------------------------------------------
# Worker-side state and task functions
# ---------------------------------------------------------------------------


class _WorkerState:
    """Per-worker context: the setup plus per-seed trace generators.

    The generator cache is what turns "fresh :class:`TraceGenerator`
    per day" into "one generator per worker": its per-config Philox
    keys and first-joiner tables are built once and reused for every
    day the worker replays (streams are (config, slot)-addressed, so
    sharing the generator across days changes nothing).
    """

    def __init__(self, setup: "EuropeSetup") -> None:
        self.setup = setup
        self._generators: Dict[int, TraceGenerator] = {}

    def trace_generator(self, seed: int) -> TraceGenerator:
        generator = self._generators.get(seed)
        if generator is None:
            generator = TraceGenerator(
                self.setup.demand, top_n_configs=self.setup.top_n_configs, seed=seed
            )
            self._generators[seed] = generator
        return generator


#: Process-pool worker context, set once by :func:`_init_worker`.
_WORKER_STATE: Optional[_WorkerState] = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: build this worker's setup from the payload.

    Run once per worker process.  Unpickling the setup bytes rather
    than inheriting a forked reference guarantees the worker owns fresh
    ``Scenario`` caches regardless of the multiprocessing start method.
    """
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState(pickle.loads(payload))


def _state_or_worker(state: Optional[_WorkerState]) -> _WorkerState:
    resolved = state if state is not None else _WORKER_STATE
    if resolved is None:
        raise RuntimeError("sweep task invoked outside a SweepRunner pool")
    return resolved


def _forecast_day_task(
    task: Tuple[int], state: Optional[_WorkerState] = None
) -> Tuple[int, DemandTable]:
    """(day,) -> (day, predicted demand table)."""
    from .titan_next import predicted_demand_for_day

    (day,) = task
    worker = _state_or_worker(state)
    return day, predicted_demand_for_day(worker.setup, day)


def _replay_day_task(
    task: Tuple[int, Optional[AssignmentTable], Tuple[str, ...], int, bool, bool],
    state: Optional[_WorkerState] = None,
) -> Tuple[int, Dict[str, object]]:
    """Replay one §8 day: synthesize the trace once, run each policy.

    ``task`` is ``(day, plan_assignment, policies, seed, evaluate,
    compact)``; returns ``(day, {policy: result})`` where each result is
    a full ``PredictionDayResult`` — byte-identical to
    :func:`~repro.core.titan_next.run_prediction_day`'s for that day
    (same trace, seeds and, for Titan-Next, the same plan from the
    setup's one planning LP) — or, with ``compact``, a :class:`DaySummary`
    holding only the realized-table rows, stats, and (optional) score:
    the worker→parent payload drops from the full ``CallTable`` /
    ``AssignmentBatch`` columns to a few distinct-row arrays.
    """
    from .titan_next import _prediction_day_result

    day, plan_assignment, policies, seed, evaluate, compact = task
    worker = _state_or_worker(state)
    table = worker.trace_generator(seed).table_for_day(day)
    results: Dict[str, object] = {}
    for name in policies:
        result = _prediction_day_result(
            worker.setup, name, table, seed, plan_assignment=plan_assignment
        )
        if compact:
            results[name] = summarize_day_result(
                worker.setup.scenario, result, day, seed, evaluate=evaluate
            )
        else:
            if evaluate:
                result.evaluation = result.evaluate(worker.setup.scenario)
            results[name] = result
    return day, results


def _oracle_day_task(
    task: Tuple[int, DemandTable, Optional[AssignmentTable], Tuple[str, ...]],
    state: Optional[_WorkerState] = None,
) -> Tuple[int, Dict[str, "EvaluationResult"]]:
    """Score one §7 oracle day for a set of policies.

    ``task`` is ``(day, demand, titan_next_assignment, policies)``;
    ``titan_next_assignment`` carries the serial planning phase's plan
    (``None`` when the policies leave Titan-Next out).
    """
    from .titan_next import run_oracle_day

    day, demand, tn_assignment, policies = task
    worker = _state_or_worker(state)
    return day, run_oracle_day(
        worker.setup,
        day,
        policies=policies,
        demand=demand,
        titan_next_assignment=tn_assignment,
    )


#: Task-family names for failure reports and chaos-injector routing.
_KIND_OF: Dict[Callable, str] = {
    _forecast_day_task: "forecast",
    _replay_day_task: "replay",
    _oracle_day_task: "oracle",
}


def _guarded_task(payload: Tuple[Callable, str, object, int, Optional[Callable]]) -> object:
    """Worker-side shim every pooled task runs through.

    ``payload`` is ``(fn, kind, task, attempt, inject)``: the injector
    (if any) fires first — it may kill the worker, hang, or raise —
    then the real task function runs.  Keeping the shim module-level
    keeps the submission picklable for the pool.
    """
    fn, kind, task, attempt, inject = payload
    if inject is not None:
        inject(kind, task, attempt)
    return fn(task)


# ---------------------------------------------------------------------------
# Compact day summaries (the ``return_tables=False`` result channel)
# ---------------------------------------------------------------------------


@dataclass
class DaySummary:
    """Structure-of-arrays summary of one (day, policy) replay.

    The compact worker→parent result: instead of the day's full
    ``CallTable`` / ``AssignmentBatch`` columns (one row per call), it
    carries the *distinct* realized assignment rows — exactly the
    ``(slot, config, dc, option, count)`` arrays
    :func:`~repro.analysis.metrics._rows_from_batch` produces, DC and
    option indices in scenario/:data:`EVAL_OPTION_ORDER` order — plus
    the ``ControllerStats`` and the optional in-pool
    ``EvaluationResult``.  Everything §7.1 scoring and the realized
    table need is derivable from these rows bit-for-bit; the full
    per-call batch remains reconstructable on demand because replay is
    a pure function of ``(setup, day, seed)`` (the Philox
    counter-keying contract) — see :class:`SummaryDayResult`.

    ``row_cfg`` indexes the canonical config universe
    (``universe.top(top_n_configs)`` order — the ``CallTable.configs``
    tuple); the configs themselves are deliberately *not* shipped,
    since the parent holds an equal universe.
    """

    policy: str
    day: int
    seed: int
    slots_per_day: int
    row_slot: np.ndarray
    row_cfg: np.ndarray
    row_dc: np.ndarray
    row_opt: np.ndarray
    row_count: np.ndarray
    dc_codes: Tuple[str, ...]
    stats: object
    evaluation: Optional[object] = None


def summarize_day_result(
    scenario: "Scenario",
    result: "PredictionDayResult",
    day: int,
    seed: int,
    evaluate: bool = False,
) -> DaySummary:
    """Collapse one ``PredictionDayResult`` into a :class:`DaySummary`.

    Runs worker-side.  The distinct-row group-by is computed once and
    shared between the summary and (with ``evaluate``) the §7.1 score,
    so the in-pool evaluation is byte-identical to the full path's
    ``result.evaluate(scenario)`` — same rows, same
    ``_evaluate_rows`` accumulation order.
    """
    from ..analysis.metrics import _evaluate_rows, _rows_from_batch

    configs, slot, cfg, dc, opt, counts = _rows_from_batch(
        scenario, result.assignments, SLOTS_PER_DAY
    )
    evaluation = None
    if evaluate:
        evaluation = _evaluate_rows(
            scenario, configs, slot, cfg, dc, opt, counts, policy_name=result.policy
        )
    return DaySummary(
        policy=result.policy,
        day=day,
        seed=seed,
        slots_per_day=SLOTS_PER_DAY,
        row_slot=slot,
        row_cfg=cfg,
        row_dc=dc,
        row_opt=opt,
        row_count=counts,
        dc_codes=tuple(scenario.dc_codes),
        stats=result.stats,
        evaluation=evaluation,
    )


class SummaryDayResult:
    """Parent-side view of a :class:`DaySummary` with the
    ``PredictionDayResult`` surface.

    ``realized_table`` and ``evaluate`` are answered straight from the
    summary's distinct-row arrays (byte-identical to the full result's
    answers); ``assignments`` — the full per-call batch — is
    reconstructed lazily by re-running the day from the parent's own
    state, exact by the Philox counter-keying contract.  A scenario or
    slot fold other than the one the summary was computed against
    falls back to the reconstruction, so ablation-style re-scoring can
    never silently reuse stale rows.
    """

    def __init__(
        self,
        summary: DaySummary,
        state: _WorkerState,
        configs: Sequence[CallConfig],
        plan_assignment: Optional[AssignmentTable] = None,
    ) -> None:
        self.summary = summary
        self._state = state
        self._configs = tuple(configs)
        self._plan_assignment = plan_assignment
        self._full: Optional["PredictionDayResult"] = None
        #: Mirrors ``PredictionDayResult.evaluation`` (the in-pool score).
        self.evaluation = summary.evaluation

    @property
    def policy(self) -> str:
        return self.summary.policy

    @property
    def stats(self) -> object:
        return self.summary.stats

    @property
    def assignments(self) -> "AssignmentBatch":
        return self.full_result().assignments

    def full_result(self) -> "PredictionDayResult":
        """The reconstructed full ``PredictionDayResult`` (cached)."""
        full = self._full
        if full is None:
            from .titan_next import _prediction_day_result

            s = self.summary
            table = self._state.trace_generator(s.seed).table_for_day(s.day)
            full = _prediction_day_result(
                self._state.setup, s.policy, table, s.seed, plan_assignment=self._plan_assignment
            )
            full.evaluation = self.evaluation
            self._full = full
        return full

    def realized_table(self, slots_per_day: int = SLOTS_PER_DAY) -> AssignmentTable:
        s = self.summary
        if slots_per_day != s.slots_per_day:
            return self.full_result().realized_table(slots_per_day)
        table: AssignmentTable = {}
        for t, ci, di, oi, n in zip(s.row_slot, s.row_cfg, s.row_dc, s.row_opt, s.row_count):
            key = (
                int(t),
                self._configs[int(ci)],
                s.dc_codes[int(di)],
                EVAL_OPTION_ORDER[int(oi)],
            )
            table[key] = float(n)
        return table

    def evaluate(
        self, scenario: "Scenario", slots_per_day: int = SLOTS_PER_DAY
    ) -> "EvaluationResult":
        s = self.summary
        if scenario is not self._state.setup.scenario or slots_per_day != s.slots_per_day:
            return self.full_result().evaluate(scenario, slots_per_day)
        from ..analysis.metrics import _evaluate_rows

        return _evaluate_rows(
            scenario,
            self._configs,
            s.row_slot,
            s.row_cfg,
            s.row_dc,
            s.row_opt,
            s.row_count,
            policy_name=s.policy,
        )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class _PoolHandle:
    """A rebuildable executor: what :meth:`SweepRunner.worker_pool` yields.

    Owns the live executor plus the pickled setup payload needed to
    respawn it, so the supervision loop can kill a broken/hung pool and
    carry on with the same handle.  Callers treat the handle as an
    executor — ``submit`` is the whole surface.
    """

    def __init__(self, workers: int, payload: bytes) -> None:
        self.workers = workers
        self._payload = payload
        self.rebuilds = 0
        self._pool: Optional[ProcessPoolExecutor] = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self._payload,),
        )

    def submit(self, fn: Callable[..., object], *args: object) -> "Future[object]":
        assert self._pool is not None, "submit on a killed pool (rebuild first)"
        return self._pool.submit(fn, *args)

    def kill(self) -> None:
        """Tear the executor down without waiting on stuck work.

        Workers are terminated outright: the only way to un-wedge a
        hung task.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def rebuild(self, policy: FaultPolicy) -> None:
        """Kill and respawn, enforcing the policy's rebuild budget."""
        self.rebuilds += 1
        if self.rebuilds > policy.max_pool_rebuilds:
            raise SweepError(
                f"sweep pool broke {self.rebuilds} times "
                f"(max_pool_rebuilds={policy.max_pool_rebuilds}); giving up"
            )
        self.kill()
        self._pool = self._spawn()

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


class SweepRunner:
    """Multi-day §7/§8 sweeps with a worker pool over the per-day phase.

    ``workers=1`` (the default) runs everything inline — that *is* the
    serial reference; any higher worker count runs a process pool and
    must reproduce it byte for byte, which the counter-based randomness
    guarantees and ``tests/test_sweep_parallel.py`` pins.
    ``workers="auto"`` uses the CPUs the process is allowed to run on.
    The runner itself is cheap — it owns no pool between calls, so it
    can be kept around or rebuilt freely.

    ``fault_policy`` governs the pooled phases' supervision loop
    (retries, hang timeout, pool rebuilds; see :class:`FaultPolicy`)
    and ``inject_fault`` is the worker-side chaos hook — recovered
    incidents accumulate in :attr:`fault_log`, unrecoverable ones
    raise :class:`SweepError`.  Because per-day tasks are pure
    functions of their tuples, a sweep that survives a killed or hung
    worker still reproduces the serial reference byte for byte.
    """

    def __init__(
        self,
        setup: "EuropeSetup",
        workers: int | str = 1,
        fault_policy: Optional[FaultPolicy] = None,
        inject_fault: Optional[Callable] = None,
    ) -> None:
        self.setup = setup
        self.workers = _resolve_workers(workers)
        #: Supervision knobs for pooled phases; the serial path ignores
        #: them (no pool, no retries — it is the pinned reference).
        self.fault_policy = fault_policy if fault_policy is not None else FaultPolicy()
        #: Worker-side chaos hook ``(kind, task, attempt) -> None``;
        #: must pickle to reach the pool.  Never fires inline.
        self.inject_fault = inject_fault
        #: Structured reports of every recovered incident this runner
        #: has seen (successful retries included), newest last.
        self.fault_log: List[SweepFailure] = []
        # Inline execution state: shares the caller's setup, so
        # serial sweeps also reuse one TraceGenerator across days.
        self._state = _WorkerState(setup)
        self._configs_cache: Optional[Tuple[CallConfig, ...]] = None

    # -- pool plumbing -----------------------------------------------------

    @contextmanager
    def worker_pool(self, tasks_hint: int) -> Iterator[Optional[_PoolHandle]]:
        """One rebuildable pool shared by several :meth:`map_days` calls.

        A multi-phase sweep (forecast fan-out, serial planning, replay
        fan-out) should spawn its process workers — and unpickle the
        setup payload in each — once per sweep, not once per phase;
        pass the yielded :class:`_PoolHandle` to each phase.  Yields
        ``None`` (inline execution) for single-worker runners or
        single-task hints.
        """
        if self.workers == 1 or tasks_hint <= 1:
            yield None
            return
        payload = pickle.dumps(self.setup, protocol=pickle.HIGHEST_PROTOCOL)
        handle = _PoolHandle(min(self.workers, tasks_hint), payload)
        try:
            yield handle
        finally:
            handle.shutdown()

    def _canonical_configs(self) -> Tuple[CallConfig, ...]:
        """The interned config universe (``CallTable.configs`` order)."""
        if self._configs_cache is None:
            self._configs_cache = tuple(
                item.config for item in self.setup.universe.top(self.setup.top_n_configs)
            )
        return self._configs_cache

    def _wrap_summaries(self, day: int, summaries: Dict, plans: Dict) -> Dict:
        """Wrap a day's worker-side :class:`DaySummary` values for the caller."""
        return {
            name: SummaryDayResult(
                summary,
                self._state,
                self._canonical_configs(),
                plan_assignment=plans.get(day) if name == "titan-next" else None,
            )
            for name, summary in summaries.items()
        }

    def map_days(
        self, fn: Callable, tasks: Sequence, pool: Optional[_PoolHandle] = None
    ) -> List:
        """Run ``fn`` over per-day tasks, in task order.

        Tasks must be independent (the per-day §7/§8 work is, by the
        Philox counter-keying contract) — which is also what makes the
        fault path sound: a retried or resubmitted task reproduces its
        first-attempt result bit for bit.  A single task — or a
        single-worker runner — executes inline with no supervision;
        ``pool`` reuses a handle from :meth:`worker_pool` instead of
        opening one per call.
        """
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) <= 1:
            return [fn(task, state=self._state) for task in tasks]
        if pool is not None:
            return self._gather(fn, tasks, pool)
        with self.worker_pool(len(tasks)) as opened:
            assert opened is not None  # single worker/task handled above
            return self._gather(fn, tasks, opened)

    # -- supervision --------------------------------------------------------

    def _submit_guarded(
        self, handle: _PoolHandle, fn: Callable, task: object, attempt: int
    ) -> Optional["Future[object]"]:
        """Submit one task through the worker-side guard shim.

        Returns ``None`` when the pool is already broken at submit time
        (a fast-dying worker can kill it mid-batch, making ``submit``
        itself raise) — the marker routes the task into
        :meth:`_gather`'s broken-pool recovery instead of letting the
        synchronous ``BrokenProcessPool`` escape the supervisor.
        """
        payload = (
            fn,
            _KIND_OF.get(fn, getattr(fn, "__name__", "task")),
            task,
            attempt,
            self.inject_fault,
        )
        try:
            return handle.submit(_guarded_task, payload)
        except BrokenExecutor:
            return None

    @staticmethod
    def _task_label(fn: Callable, task: object) -> str:
        kind = _KIND_OF.get(fn, getattr(fn, "__name__", "task"))
        day = _task_day(task)
        return f"{kind}:day={day}" if day is not None else kind

    def _incident(
        self,
        fn: Callable,
        task: object,
        attempts: int,
        error_type: str,
        exc: Optional[BaseException],
    ) -> SweepFailure:
        record = SweepFailure(
            kind=_KIND_OF.get(fn, getattr(fn, "__name__", "task")),
            label=self._task_label(fn, task),
            attempts=attempts,
            error_type=error_type,
            message=str(exc) if exc is not None else "",
            traceback="".join(traceback_module.format_exception(exc)) if exc is not None else "",
        )
        self.fault_log.append(record)
        return record

    def _harvest(
        self, pending: Dict[int, Optional["Future[object]"]], results: List
    ) -> None:
        """Bank every already-finished successful result in ``pending``.

        Run before a pool kill: futures that completed before the kill
        keep their results, and banking them means a rebuild only
        re-runs genuinely incomplete days.  ``None`` entries mark tasks
        whose submission already found the pool broken.
        """
        done = [(i, f) for i, f in pending.items() if f is not None and f.done()]
        for index, future in done:
            if future.cancelled() or future.exception() is not None:
                continue
            results[index] = future.result()
            del pending[index]

    def _gather(self, fn: Callable, tasks: Sequence, handle: _PoolHandle) -> List:
        """The supervision loop: gather pooled results, surviving faults.

        Results are collected in task order.  A task exception retries
        in place with backoff — except a ``ValueError`` or
        :class:`PlanningError`, which comes from the task's own inputs
        and kills the pool and propagates as raised, like the serial
        path; a hang (``FaultPolicy.timeout_s``) or a broken pool kills
        and rebuilds the executor and resubmits the incomplete tail;
        tasks out of retries are reported together on a
        :class:`SweepError` once everything else has finished.
        """
        policy = self.fault_policy
        n = len(tasks)
        results: List = [None] * n
        attempts = [0] * n
        failures: List[SweepFailure] = []
        pending = {i: self._submit_guarded(handle, fn, tasks[i], 0) for i in range(n)}

        def resubmit_incomplete() -> None:
            self._harvest(pending, results)
            handle.rebuild(policy)
            for j in list(pending):
                pending[j] = self._submit_guarded(handle, fn, tasks[j], attempts[j])

        def give_up(index: int, error_type: str, exc: Optional[BaseException]) -> None:
            failures.append(self._incident(fn, tasks[index], attempts[index], error_type, exc))
            del pending[index]

        def recover_broken_pool(index: int, exc: Optional[BaseException]) -> None:
            # A dead worker breaks every pending future at once and
            # hides which task it was running, so every incomplete
            # task pays an attempt — that is also what stops a
            # first-attempt-keyed kill injector from re-firing.
            for j in list(pending):
                attempts[j] += 1
                if attempts[j] > policy.max_retries:
                    give_up(j, "BrokenPool", exc)
            if pending:
                if index in pending:
                    self._incident(fn, tasks[index], attempts[index], "BrokenPool", exc)
                resubmit_incomplete()

        while pending:
            index = min(pending)
            future = pending[index]
            if future is None:
                recover_broken_pool(index, None)
                continue
            try:
                results[index] = future.result(timeout=policy.timeout_s)
                del pending[index]
            except FutureTimeout as exc:
                attempts[index] += 1
                if attempts[index] > policy.max_retries:
                    give_up(index, "Timeout", exc)
                else:
                    self._incident(fn, tasks[index], attempts[index], "Timeout", exc)
                resubmit_incomplete()
            except BrokenExecutor as exc:
                recover_broken_pool(index, exc)
            except (ValueError, PlanningError):
                # A retry would repeat the same input error byte for byte.
                handle.kill()
                raise
            except Exception as exc:
                attempts[index] += 1
                if attempts[index] > policy.max_retries:
                    give_up(index, type(exc).__name__, exc)
                    continue
                self._incident(fn, tasks[index], attempts[index], type(exc).__name__, exc)
                time.sleep(policy.backoff_for(attempts[index]))
                pending[index] = self._submit_guarded(handle, fn, tasks[index], attempts[index])
        if failures:
            raise SweepError(
                f"{len(failures)} sweep task(s) failed after retries: "
                + ", ".join(f.label for f in failures),
                failures,
            )
        return results

    # -- §8 prediction sweeps ----------------------------------------------

    def forecast_days(
        self, days: Sequence[int], pool: Optional[_PoolHandle] = None
    ) -> Dict[int, DemandTable]:
        """Parallel phase 1: per-day Holt-Winters forecast tables."""
        tasks = [(day,) for day in days]
        return dict(self.map_days(_forecast_day_task, tasks, pool=pool))

    def replay_days(
        self,
        days: Sequence[int],
        plans: Optional[Dict[int, AssignmentTable]] = None,
        policies: Sequence[str] = ("titan-next",),
        seed: int = 71,
        evaluate: bool = False,
        pool: Optional[_PoolHandle] = None,
        return_tables: bool = True,
    ) -> Dict[int, Dict[str, "PredictionDayResult"]]:
        """Parallel phase 3: per-day trace synthesis + controller replay.

        Each worker synthesizes the day's :class:`CallTable` once (one
        generator per worker, reused across its days) and feeds it to
        every requested controller's ``process_table``.  With
        ``evaluate=True`` the worker also scores each result through
        ``evaluate_batch`` (worker-local ``Scenario.eval_tables``) and
        attaches it as ``PredictionDayResult.evaluation``.  With
        ``return_tables=False`` workers ship :class:`DaySummary` rows
        instead of full batches and the returned values are
        :class:`SummaryDayResult` wrappers.
        """
        plans = plans if plans is not None else {}
        chosen = tuple(policies)
        compact = not return_tables
        tasks = [(day, plans.get(day), chosen, seed, evaluate, compact) for day in days]
        gathered = dict(self.map_days(_replay_day_task, tasks, pool=pool))
        if not compact:
            return gathered
        return {day: self._wrap_summaries(day, results, plans) for day, results in gathered.items()}

    def run_prediction_window(
        self,
        days: Sequence[int],
        policies: Optional[Sequence[str]] = None,
        seed: int = 71,
        evaluate: bool = False,
        chunk_days: Optional[int] = None,
        return_tables: bool = True,
    ) -> Dict[int, Dict[str, "PredictionDayResult"]]:
        """The §8 experiment for every (day, policy) in a window.

        Per (day, policy) the output is byte-identical to
        :func:`~repro.core.titan_next.run_prediction_day`'s: the same
        trace and seeds, and for Titan-Next the same plan, solved
        through the setup's one planning LP.  The output is
        byte-identical for any worker count, any ``chunk_days``, and
        either result channel.  This is :meth:`iter_days` drained into
        a dict; pass ``chunk_days`` to bound in-flight work, or iterate
        :meth:`iter_days` directly to also bound *held* results.
        """
        return dict(
            self.iter_days(
                days,
                policies=policies,
                seed=seed,
                evaluate=evaluate,
                chunk_days=chunk_days,
                return_tables=return_tables,
            )
        )

    def iter_days(
        self,
        days: Sequence[int],
        policies: Optional[Sequence[str]] = None,
        seed: int = 71,
        evaluate: bool = False,
        chunk_days: Optional[int] = None,
        return_tables: bool = True,
    ) -> Iterator[Tuple[int, Dict[str, "PredictionDayResult"]]]:
        """Stream the §8 window as ``(day, {policy: result})`` pairs,
        in day order, ``chunk_days`` days at a time (``None``: the
        whole window as one chunk).

        The streaming contract: results are byte-identical to the
        monolithic window for every chunk size.  That holds because
        forecasts for the whole window are computed up front (demand
        tables are small) and every day solves through the setup's one
        planning structure from the slack basis, so every plan is the
        monolithic one.  Only plan-solving, replay fan-out, and result
        materialization proceed O(chunk) at a time:
        a 52-week sweep holds one chunk of day results (plus the
        window's forecast tables) instead of every ``CallTable`` in the
        window.
        Chunks of 1 degrade to inline replay, so keep
        ``chunk_days >= workers`` when fan-out matters.
        """
        from .titan_next import plan_day

        day_list = list(days)
        chosen = tuple(policies) if policies is not None else PREDICTION_POLICIES
        chunk = self._chunk(chunk_days, len(day_list))
        planned = "titan-next" in chosen
        if planned and not day_list:
            raise ValueError("a Titan-Next window needs at least one day to plan")
        # One pool spans every phase and chunk: workers spawn (and
        # build their state) once, idling only through the short serial
        # planning stretches in between.
        with self.worker_pool(len(day_list)) as pool:
            if planned:
                predictions = self.forecast_days(day_list, pool=pool)
            for start in range(0, len(day_list), chunk):
                block = day_list[start : start + chunk]
                plans: Optional[Dict[int, AssignmentTable]] = None
                if planned:
                    plans = {day: plan_day(self.setup, predictions[day], day) for day in block}
                results = self.replay_days(
                    block,
                    plans=plans,
                    policies=chosen,
                    seed=seed,
                    evaluate=evaluate,
                    pool=pool,
                    return_tables=return_tables,
                )
                yield from ((day, results[day]) for day in block)

    @staticmethod
    def _chunk(chunk_days: Optional[int], n_days: int) -> int:
        """A call's chunk size; ``None`` runs the window as one chunk."""
        chunk = chunk_days if chunk_days is not None else (n_days or 1)
        if chunk < 1:
            raise ValueError("chunk_days must be >= 1 (or None)")
        return chunk

    # -- §7 oracle sweeps ----------------------------------------------------

    def run_oracle_days(
        self,
        days: Sequence[int],
        policies: Optional[Sequence[str]] = None,
        chunk_days: Optional[int] = None,
    ) -> Dict[int, Dict[str, "EvaluationResult"]]:
        """The §7 oracle comparison over a run of days.

        Demand sampling and the Titan-Next solves through the setup's
        one plan cache run serially in the parent; baseline policy
        assignment and all ``evaluate_batch`` scoring fan out per day.
        Byte-identical for any worker count and any ``chunk_days``, and
        to :func:`~repro.core.titan_next.run_oracle_day` day by day:
        chunking only bounds how many days are planned and in flight at
        once — every day is still solved through the same cache, from
        the slack basis.
        """
        from .titan_next import oracle_demand_for_day, plan_day

        day_list = list(days)
        chosen = tuple(policies) if policies is not None else ("wrr", "titan", "lf", "titan-next")
        chunk = self._chunk(chunk_days, len(day_list))
        demands = {day: oracle_demand_for_day(self.setup, day) for day in day_list}
        planned = "titan-next" in chosen and bool(day_list)

        # One pool spans every chunk's scoring: workers spawn once.
        out: Dict[int, Dict[str, "EvaluationResult"]] = {}
        with self.worker_pool(len(day_list)) as pool:
            for start in range(0, len(day_list), chunk):
                block = day_list[start : start + chunk]
                tn_plans: Dict[int, AssignmentTable] = {}
                if planned:
                    tn_plans = {day: plan_day(self.setup, demands[day], day) for day in block}
                tasks: List[OracleTask] = [
                    (day, demands[day], tn_plans.get(day), chosen) for day in block
                ]
                out.update(self.map_days(_oracle_day_task, tasks, pool=pool))
        return out
