"""The benchmark's workloads: set-up, the timed window, and its outputs.

Each workload is a batch job of fixed input size over the §7/§8
pipeline (forecast, plan with the Fig 13 LP, synthesize the call trace,
replay each controller, score sum-of-peaks).  The four stress different
layers, so an optimisation of one layer shows on the workload built
around it and must leave the others alone:

* ``replay-europe-1m`` — the controllers' per-call loops do almost all
  the work; planning is about 1%.
* ``plan-global-200`` — one large cached LP, cold-solved and then
  hot-started across days; replay is negligible.
* ``pool-europe-500k`` — the replay layer fanned over a process pool,
  so spawn, state shipping and result IPC show up.
* ``replan-emea-stress`` — many small hot re-solves of one LP structure
  inside the six stress-campaign days, plus capacity refreshes; the
  only workload that runs ``core.stress`` and ``core.replanner``.

The workload seed is the benchmark's own argument and draws the inputs
of the window: the realized call traces and the controllers' random
streams (trace seed ``71 + seed``; seed 0 is the library default, for
which the expected outputs are pinned).  The scenario itself — config
universe, demand model, capacity book, hence every LP — is the fixed,
named instance: on global/top-200 the LP solve time alone moves by
±15% between scenario seeds, more than any regression bound could
absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: Trace/controller seed the §8 runners default to.
DEFAULT_TRACE_SEED = 71

ALL_POLICIES = ("wrr", "lf", "titan", "titan-next")


@dataclass(frozen=True)
class Sizes:
    """The input size of one workload at one scale."""

    daily_calls: float
    top_n_configs: int
    days: Sequence[int]


@dataclass
class Operation:
    """One (day, policy) or (scenario, day, policy) unit of the window.

    ``trace`` regenerates the call trace the operation consumed, so the
    invariant checks can compare the controller's placements against it.
    """

    op_id: str
    policy: str
    batch: object
    stats: object
    evaluation: object
    trace: Callable[[], object]
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    operations: List[Operation]
    #: Per-layer numbers only the window's results carry.
    layer_counts: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # "europe" or a scenario-zoo name
    full: Sizes
    toy: Sizes
    #: ``body(workload, setup, sizes, seed)`` runs the window.
    body: Callable[..., Outcome]
    #: Operations one window attempts at the given sizes.
    operations: Callable[[Sizes], int]
    pooled: bool = False
    #: How the window's CPU time follows the probed host speed:
    #: ``cpu ∝ speed ** -elasticity``.  The probe kernel is pure
    #: interpreter work; a window that spends most of its time in HiGHS
    #: slows less than it when a co-tenant shares the core.  Fitted by
    #: least squares on log CPU time against log speed over two ten-seed
    #: sets, one of them with the CPUs contended on purpose; the other
    #: workloads fitted 0.96–1.11 and keep 1.0.
    elasticity: float = 1.0

    def sizes(self, scale: str) -> Sizes:
        return self.toy if scale == "toy" else self.full

    def workers(self) -> int:
        from repro.core.sweep import available_workers

        return available_workers() if self.pooled else 1

    def build_setup(self, scale: str):
        """The workload's scenario: what ``setup_s`` times."""
        sizes = self.sizes(scale)
        size = {"daily_calls": sizes.daily_calls, "top_n_configs": sizes.top_n_configs}
        if self.scenario == "europe":
            from repro.core.titan_next import build_europe_setup

            return build_europe_setup(**size)
        from repro.scenarios.factory import build_scenario

        return build_scenario(self.scenario, **size)

    def run(self, setup, scale: str, seed: int) -> Outcome:
        return self.body(self, setup, self.sizes(scale), seed)


def trace_seed(seed: int) -> int:
    return DEFAULT_TRACE_SEED + seed


def _regenerate(setup, day: int, seed: int, multipliers=None) -> Callable[[], object]:
    """The day's trace, rebuilt on demand (outside the timed window)."""

    def trace():
        from repro.workload.traces import TraceGenerator

        generator = TraceGenerator(
            setup.demand, top_n_configs=setup.top_n_configs, seed=trace_seed(seed)
        )
        return generator.table_for_day(day, multipliers=multipliers() if multipliers else None)

    return trace


def _prediction_window(policies: Sequence[str]) -> Callable[..., Outcome]:
    """A §8 window through ``SweepRunner.run_prediction_window``."""

    def body(bench: Workload, setup, sizes: Sizes, seed: int) -> Outcome:
        from repro.core.sweep import SweepRunner

        runner = SweepRunner(setup, workers=bench.workers())
        window = runner.run_prediction_window(
            list(sizes.days), policies=policies, seed=trace_seed(seed), evaluate=True
        )
        traces = {day: _regenerate(setup, day, seed) for day in sizes.days}
        return Outcome(
            [
                Operation(
                    f"day{day}/{policy}",
                    policy,
                    window[day][policy].assignments,
                    window[day][policy].stats,
                    window[day][policy].evaluation,
                    traces[day],
                )
                for day in sizes.days
                for policy in policies
            ]
        )

    return body


def _stress_family(bench: Workload, setup, sizes: Sizes, seed: int) -> Outcome:
    """Every pinned stress-campaign timeline, each day replanned intraday.

    A first-joiner WRR replay of the same stressed trace gives the
    campaign its Titan-Next saving, as on the §8 workloads.
    """
    from repro.analysis import metrics
    from repro.core.controller import FirstJoinerWrr
    from repro.core.stress import campaign_scenarios, run_campaign_day

    raw_configs = [item.config for item in setup.universe.top(setup.top_n_configs)]
    slots = setup.scenario.slots_per_day
    operations: List[Operation] = []
    overflow = 0.0
    for name, timeline in campaign_scenarios(setup).items():
        for day in sizes.days:
            result = run_campaign_day(setup, timeline, day=day, seed=trace_seed(seed))
            # The WRR seed offset of titan_next's first-joiner baselines.
            wrr = FirstJoinerWrr(setup.scenario, seed=trace_seed(seed) + 2)
            wrr_batch = wrr.process_table(result.batch.table)
            wrr_eval = metrics.evaluate_batch(setup.scenario, wrr_batch, "wrr")
            trace = _regenerate(
                setup, day, seed, lambda t=timeline: t.demand_multipliers(raw_configs, slots)
            )
            counts = {
                "infeasible_rounds": result.infeasible_rounds,
                "overflow_calls": result.overflow_calls,
            }
            operations += [
                Operation(
                    f"{name}/day{day}/titan-next", "titan-next",
                    result.batch, result.stats, result.evaluation, trace, counts,
                ),
                Operation(f"{name}/day{day}/wrr", "wrr", wrr_batch, wrr.stats, wrr_eval, trace),
            ]
            overflow += result.overflow_calls
    return Outcome(operations, {"stress.overflow_calls": overflow})


def _per_day(policies: Sequence[str]) -> Callable[[Sizes], int]:
    return lambda sizes: len(sizes.days) * len(policies)


#: ``campaign_scenarios`` timelines × (Titan-Next, WRR) per stressed day.
STRESS_OPS_PER_DAY = 6 * 2

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "replay-europe-1m", "europe",
            Sizes(1_000_000, 100, (30,)), Sizes(20_000, 40, (30,)),
            _prediction_window(ALL_POLICIES), _per_day(ALL_POLICIES),
        ),
        Workload(
            "plan-global-200", "global",
            Sizes(50_000, 200, (30, 31)), Sizes(5_000, 40, (30, 31)),
            _prediction_window(("wrr", "titan-next")), _per_day(("wrr", "titan-next")),
            elasticity=0.73,
        ),
        Workload(
            "pool-europe-500k", "europe",
            Sizes(500_000, 100, (30, 31)), Sizes(10_000, 40, (30, 31)),
            _prediction_window(ALL_POLICIES), _per_day(ALL_POLICIES),
            pooled=True,
        ),
        Workload(
            "replan-emea-stress", "emea",
            Sizes(50_000, 200, (30,)), Sizes(5_000, 40, (30,)),
            _stress_family, lambda sizes: STRESS_OPS_PER_DAY * len(sizes.days),
        ),
    )
}


def policy_saving_pct(operations: Sequence[Operation]) -> Optional[float]:
    """100·(1 − SoP_titan-next / SoP_wrr), averaged over the window's groups.

    A group is a day (or a stress scenario's day): the operations whose
    ids share everything but the policy.
    """
    groups: Dict[str, Dict[str, float]] = {}
    for op in operations:
        group = op.op_id.rsplit("/", 1)[0]
        groups.setdefault(group, {})[op.policy] = op.evaluation.sum_of_peaks_gbps
    savings = [
        100.0 * (1.0 - g["titan-next"] / g["wrr"])
        for g in groups.values()
        if "titan-next" in g and "wrr" in g and g["wrr"] > 0
    ]
    return sum(savings) / len(savings) if savings else None
