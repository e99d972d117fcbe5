"""The full Titan-Next pipeline (Fig 12) and the evaluation harnesses.

Building blocks, wired exactly as in the paper:

1. **call records DB** → per-config demand history (4 weeks);
2. **call count prediction** — Holt-Winters per top config, 24 h ahead
   at 30-minute slots;
3. **call config grouping** — reduce + group (§6.2);
4. **offline precomputed plan** — the Fig 13 LP;
5. **controller for online assignment** — first-joiner assignment with
   migration reconciliation (§6.4).

Two evaluation harnesses mirror the paper's two modes:

* :func:`run_oracle_day` (§7) — policies see the true demand;
* :func:`run_prediction_day` (§8) — Titan-Next plans on forecasts and
  assigns per call; baselines see only the first joiner.

Multi-day windows of either mode run through
:class:`~repro.core.sweep.SweepRunner`.  Every Titan-Next plan over
reduced configs — a window's days, a single day, a stress campaign's
replan rounds — solves through the setup's one :class:`PlanCache`
(:func:`plan_day`), so a single day's plan is the window's, bit for bit.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..geo.world import World, default_world
from ..net.latency import LatencyModel
from ..solver.model import Solution
from ..workload.configs import CallConfig, group_by_reduced
from ..workload.demand import SLOTS_PER_DAY, ConfigUniverse, DemandModel
from ..workload.traces import CallTable, TraceGenerator
from .capacity import InternetCapacityBook
from .controller import (
    AssignmentBatch,
    ControllerStats,
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
    TitanNextController,
)
from .forecast import HoltWinters, forecast_day
from .lp import (
    AssignmentTable,
    JointAssignmentLp,
    JointLpOptions,
    JointLpResult,
    PlanningError,
    extract_result,
)
from .plan import OfflinePlan
from .policies import LocalityFirstPolicy, TitanPolicy, WrrPolicy
from .scenario import Scenario, calibrate_compute_caps, estimate_pair_traffic_gbps

#: Default European MP DCs (§7.3 evaluates intra-Europe calls only).
EUROPE_EVAL_DCS = ("uk-south", "france-central", "westeurope", "switzerland-north", "ireland")


@dataclass
class EuropeSetup:
    """Everything the evaluation harnesses share.

    The setup's planning LP (:meth:`plan_cache`) is built on its first
    plan and dropped when the setup pickles; ``dataclasses.replace(setup)``
    is a copy that shares everything else and builds a cache of its own.
    """

    world: World
    scenario: Scenario
    universe: ConfigUniverse
    demand: DemandModel
    top_n_configs: int
    capacity_book: InternetCapacityBook
    _lp_cache: Optional["PlanCache"] = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # The cache holds a lock and a live solver session; the far
        # side builds its own on its first plan.
        state = self.__dict__.copy()
        state["_lp_cache"] = None
        return state

    def plan_cache(self) -> "PlanCache":
        """The setup's one Titan-Next planning LP, built on first use."""
        if self._lp_cache is None:
            self._lp_cache = PlanCache(self)
        return self._lp_cache


def build_europe_setup(
    daily_calls: float = 40_000.0,
    top_n_configs: int = 150,
    internet_fraction: float = 0.18,
    disabled_countries: Sequence[str] = ("DE", "AT"),
    seed: int = 67,
    world: Optional[World] = None,
    latency: Optional[LatencyModel] = None,
) -> EuropeSetup:
    """The default intra-Europe evaluation scenario.

    Internet capacities mimic a converged Titan: most pairs sit near the
    20% cap (we default to 18%, reflecting "some countries had 5-15%
    ... due to performance deterioration"), and the paper's problem
    countries are disabled outright.  Pass a real
    :class:`~repro.core.titan.Titan`-produced book via
    ``Scenario.with_capacity_book`` for a fully closed loop.
    """
    world = world if world is not None else default_world()
    latency = latency if latency is not None else LatencyModel(world)
    eu_countries = [c.code for c in world.europe_countries]
    dcs = [code for code in EUROPE_EVAL_DCS]
    universe = ConfigUniverse(world.europe_countries, seed=seed)
    demand = DemandModel(universe, daily_calls=daily_calls, seed=seed + 1)

    traffic = estimate_pair_traffic_gbps(demand, eu_countries, dcs, top_n_configs=top_n_configs)
    book = InternetCapacityBook()
    rng = np.random.default_rng(seed + 2)
    for country in eu_countries:
        for dc in dcs:
            # Converged fractions vary per pair (5%..cap), as §7.4 notes.
            # Drawn unconditionally — before the disabled check — so the
            # stream position of every later pair is independent of the
            # disabled set and books stay comparable across ablations.
            fraction = float(min(0.20, max(0.05, rng.normal(internet_fraction, 0.03))))
            if country in disabled_countries:
                book.disable(country, dc)
                continue
            book.set_fraction(country, dc, fraction)
            book.set_gbps(country, dc, fraction * traffic[(country, dc)])

    caps = calibrate_compute_caps(world, dcs, demand, top_n_configs=top_n_configs)
    scenario = Scenario(world, latency, eu_countries, dcs, book, compute_caps=caps)
    return EuropeSetup(world, scenario, universe, demand, top_n_configs, book)


def day_e2e_bound_ms(day: int) -> float:
    """§7.5's per-day E2E bound: 75 ms weekdays, relaxed to 80 weekends."""
    return 80.0 if day % 7 >= 5 else 75.0


# ---------------------------------------------------------------------------
# Demand tables
# ---------------------------------------------------------------------------


def _table_from_matrix(
    matrix: np.ndarray, configs: Sequence[CallConfig], reduced: bool
) -> Dict[Tuple[int, CallConfig], float]:
    """A per-day demand table from a ``(configs, slots)`` count matrix.

    ``reduced=True`` buckets rows by reduced call config (§6.2) in one
    pass — each row is scaled by its reduction factor and accumulated
    onto its reduced group's slot vector — then emits the positive
    entries.  ``False`` keeps raw configs (the Table 4 ablation).
    """
    table: Dict[Tuple[int, CallConfig], float] = {}
    if reduced:
        buckets: Dict[CallConfig, np.ndarray] = {}
        for i, config in enumerate(configs):
            row = matrix[i]
            if not row.any():
                continue
            group = config.reduced()
            contribution = row * float(config.reduction_factor())
            if group in buckets:
                buckets[group] = buckets[group] + contribution
            else:
                buckets[group] = contribution
        for config, slot_values in buckets.items():
            for t in np.nonzero(slot_values > 0)[0]:
                table[(int(t), config)] = float(slot_values[t])
    else:
        for i, config in enumerate(configs):
            row = matrix[i]
            for t in np.nonzero(row > 0)[0]:
                table[(int(t), config)] = float(row[t])
    return table


def oracle_demand_for_day(
    setup: EuropeSetup, day: int, reduced: bool = True
) -> Dict[Tuple[int, CallConfig], float]:
    """True (sampled) demand for one day, keyed by slot-of-day.

    One ``counts_matrix`` call samples the whole (configs, slots) day;
    ``reduced=True`` groups by reduced call config (§6.2), ``False``
    keeps raw configs (the Table 4 ablation).
    """
    counts = setup.demand.counts_matrix(
        day * SLOTS_PER_DAY, SLOTS_PER_DAY, top_n=setup.top_n_configs
    )
    configs = [item.config for item in setup.universe.top(setup.top_n_configs)]
    return _table_from_matrix(counts, configs, reduced)


#: Weeks of demand history the Holt-Winters forecast fits on (§6.1(2)).
HISTORY_WEEKS = 4


class InsufficientHistory(ValueError):
    """A forecast day that does not leave enough demand history.

    ``day`` is the day asked for and ``history_weeks`` the history the
    Holt-Winters fit needs before it; the message names both.
    """

    def __init__(self, day: int, history_weeks: int) -> None:
        super().__init__(f"day {day} does not leave {history_weeks} weeks of history")
        self.day = day
        self.history_weeks = history_weeks

    def __reduce__(self):
        # Raised inside pool workers too; keep the fields across pickle.
        return type(self), (self.day, self.history_weeks)


def predicted_demand_for_day(
    setup: EuropeSetup, day: int, reduced: bool = True
) -> Dict[Tuple[int, CallConfig], float]:
    """Holt-Winters forecast of one day's demand (§6.1(2)).

    Forecasts are per call config (the paper predicts configs, not
    reduced configs, §8.3) and grouped to reduced configs afterwards.
    The whole sweep is batched: one ``counts_matrix`` window for the
    history of every top config, one ``fit_many`` pass updating all
    Holt-Winters states together, one matrix forecast.  The scalar
    rendition is kept as :func:`predicted_demand_for_day_reference`.
    """
    history_slots = HISTORY_WEEKS * 7 * SLOTS_PER_DAY
    start = day * SLOTS_PER_DAY - history_slots
    if start < 0:
        raise InsufficientHistory(day, HISTORY_WEEKS)
    items = setup.universe.top(setup.top_n_configs)
    history = setup.demand.counts_matrix(start, history_slots, top_n=setup.top_n_configs)
    keep = np.nonzero(history.max(axis=1) > 0)[0]
    if keep.size == 0:
        return {}
    model = HoltWinters(alpha=0.3, beta=0.01, gamma=0.3)
    predictions = model.fit_many(history[keep].astype(float)).forecast(SLOTS_PER_DAY)
    configs = [items[int(i)].config for i in keep]
    return _table_from_matrix(predictions, configs, reduced)


def predicted_demand_for_day_reference(
    setup: EuropeSetup, day: int, reduced: bool = True
) -> Dict[Tuple[int, CallConfig], float]:
    """Scalar ground truth for :func:`predicted_demand_for_day`.

    Samples each history point per (config, slot), fits one
    Holt-Winters model per config, and regroups per slot — the
    pre-batching pipeline, kept (like ``JointAssignmentLp.build_reference``)
    to validate and benchmark the batched path against.
    """
    history_slots = HISTORY_WEEKS * 7 * SLOTS_PER_DAY
    start = day * SLOTS_PER_DAY - history_slots
    if start < 0:
        raise InsufficientHistory(day, HISTORY_WEEKS)
    raw: Dict[Tuple[int, CallConfig], float] = {}
    for item in setup.universe.top(setup.top_n_configs):
        history = np.asarray(
            [setup.demand.sample_count(item.config, s) for s in range(start, start + history_slots)]
        )
        if history.max() <= 0:
            continue
        prediction = forecast_day(history, horizon=SLOTS_PER_DAY)
        for slot_of_day, value in enumerate(prediction):
            if value > 0:
                key = (slot_of_day, item.config)
                raw[key] = raw.get(key, 0.0) + float(value)
    if not reduced:
        return raw
    table: Dict[Tuple[int, CallConfig], float] = {}
    for slot_of_day in range(SLOTS_PER_DAY):
        slot_counts = {c: v for (t, c), v in raw.items() if t == slot_of_day}
        for config, count in group_by_reduced(slot_counts).items():
            table[(slot_of_day, config)] = count
    return table


# ---------------------------------------------------------------------------
# Plan cache: the setup's one planning LP
# ---------------------------------------------------------------------------

#: Per-solve capacity factors, ``(internet_factor(slot, country, dc),
#: compute_factor(slot, dc))``, either ``None`` for the build-time
#: capacities: what ``StressTimeline.capacity_factor_fns`` returns.
CapacityFactors = Tuple[
    Optional[Callable[[int, str, str], float]], Optional[Callable[[int, str], float]]
]


class _SolvedPlan(NamedTuple):
    """What a :class:`PlanCache`'s memo keeps of one persistent-session
    solve.

    ``x`` is kept sparse and bit-exact: the indices whose bit pattern is
    nonzero (so ``-0.0`` survives) and their values.  Never a
    :class:`~repro.solver.model.Solution`: its ``name_of`` would pin the
    whole ``LinearProgram``.
    """

    status: str
    objective: Optional[float]
    iterations: int
    size: int
    index: Optional[np.ndarray]
    value: Optional[np.ndarray]

    @classmethod
    def of(cls, solution: Solution) -> "_SolvedPlan":
        x = solution.x
        if x is None:
            return cls(solution.status, solution.objective, solution.iterations, 0, None, None)
        index = np.flatnonzero(x.view(np.uint64))
        return cls(
            solution.status, solution.objective, solution.iterations, x.size, index, x[index]
        )

    def solution(self) -> Solution:
        x = None
        if self.index is not None:
            x = np.zeros(self.size)
            x[self.index] = self.value
        return Solution(self.status, self.objective, iterations=self.iterations, x=x)


def _digest(*arrays: np.ndarray) -> bytes:
    """sha256 over each array's dtype, shape and bytes."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.data)
    return digest.digest()


class PlanCache:
    """A setup's Titan-Next planning LP, kept loaded for every day it plans.

    The Fig 13 LP's constraint *structure* (columns, the C1/C2/C3/C5
    coefficient matrix, the C4 latency row) depends only on the configs,
    the scenario, and its slot grid — day to day, only the right-hand
    sides change.  The cache builds the sum-of-peaks LP once over every
    slot of the scenario's day × the setup's reduced config set (the
    reduced configs of its top ``top_n_configs``, which every forecast,
    oracle day and campaign estimate of the setup draws from) under the
    default options (Internet allowed at the book's capacities, no
    single-DC pinning), loads it into one persistent HiGHS model, and
    re-solves each day after an O(rows) RHS refresh — which is what
    makes week-long oracle sweeps (Fig 14), forecast sweeps (Fig 15, the
    Fig 18-style sweep) and intraday replanning affordable at production
    scale.  Reach it through :meth:`EuropeSetup.plan_cache`; build one
    directly only to plan on a cold cache.

    Every :meth:`solve_day` installs all four right-hand-side families
    itself — C1 demand counts, C2/C3 capacities (the build-time values
    times the solve's ``capacity`` factors), the C4 bound — and starts
    from the slack basis, so no state carries from one solve to the
    next: a day's plan depends only on the arguments it is solved with.
    A day's demand may cover only some of the configs: C1 pins the
    missing columns to zero.  Demand comes as a table keyed by (slot,
    reduced config), or as a ``(raw configs, slots)`` estimate matrix
    in the setup's top-config order, which :meth:`estimate_counts`
    folds straight into the C1 counts (a replan round's input).  A
    result keeps its x column values, builds its assignment table only
    when read, and :meth:`plan_of` turns column values into an
    :class:`~repro.core.plan.OfflinePlan` directly.

    **Horizons.** An intraday replan round plans only the slots left
    (``solve_day(..., from_slot=s)``).  ``_build`` orders the x columns
    by ``(t, str(config))`` and puts the link-peak columns last, so a
    round's columns are a suffix of the LP's; the session loads that
    suffix, with every row no kept x column touches (the earlier slots'
    C1/C2/C3/C5 rows) unbounded.  Those rows are found once per slot,
    and the capacity factors scale only the rows of the horizon's
    slots.  A late round is a small LP, served from the same session
    and the same matrix: changing the horizon reloads the model from
    views of the matrix's arrays, and a solve at the same horizon as
    the last one sends only the changed row bounds.

    **Concurrency contract.** One cache owns one persistent HiGHS
    session, and a solve is a mutate-RHS-then-run critical section, so
    :meth:`solve_day` serializes callers behind an internal lock:
    concurrent calls are safe (each sees a consistent RHS and its own
    result) but never parallel.

    **Repeated right-hand sides.** Because a solve's result depends only
    on the columns it loads and their row bounds, :meth:`solve_day`
    first looks the horizon and the loaded row bounds up in the cache's
    memo (an LRU of :attr:`MEMO_SIZE` solves, keyed on their digest,
    kept under the same lock) and serves a repeat from there, bit for
    bit, without running HiGHS; :attr:`memo_hits` counts those solves.
    A stress campaign's timelines share the setup's cache: their rounds
    before an event is visible solve the unstressed LP again, and so do
    their rounds after a capacity event has ended, whose factors reach
    only free rows.
    """

    #: Solves the memo keeps, least recently used evicted first.
    MEMO_SIZE = 16

    def __init__(self, setup: EuropeSetup) -> None:
        self.scenario = setup.scenario
        top = setup.universe.top(setup.top_n_configs)
        configs = sorted({item.config.reduced() for item in top}, key=str)
        placeholder = {(t, c): 1.0 for t in range(self.scenario.slots_per_day) for c in configs}
        self._lp, self._artifacts = JointAssignmentLp(self.scenario, placeholder)._build()
        self._group_index = {key: g for g, key in enumerate(self._artifacts.groups)}
        col_t = self._artifacts.col_t
        # _build orders the x columns by (t, str(config)), so the columns
        # of slots ≥ s (then the y columns) are a suffix, and the C1
        # groups run slot-major over the sorted configs: group g is
        # (g // len(configs), configs[g % len(configs)]).
        assert bool((col_t[1:] >= col_t[:-1]).all()), "plan LP columns are not slot-ordered"
        # Raw config i of an estimate matrix (a row of the setup's top
        # configs) adds its row times its reduction factor to its
        # reduced config's groups (§6.2).
        reduced_row = {config: r for r, config in enumerate(self._artifacts.configs)}
        self._raw_reduced = np.asarray([reduced_row[item.config.reduced()] for item in top])
        self._raw_factor = np.asarray([float(item.config.reduction_factor()) for item in top])
        #: (first column, free rows) per horizon slot, computed once.
        self._horizons: Dict[int, Tuple[int, np.ndarray]] = {}
        from ..solver.scipy_backend import PreparedHighs

        # The model stays loaded in one HiGHS instance; each solve_day
        # sends only the changed row bounds and solves from scratch.
        self._prepared = PreparedHighs(self._lp, persistent=True)
        self._lock = threading.RLock()
        self._memo: "OrderedDict[bytes, _SolvedPlan]" = OrderedDict()
        #: solve_day calls, and those of them the memo served.
        self.solves = 0
        self.memo_hits = 0
        artifacts = self._artifacts
        # The right-hand sides every solve installs (no C3 block when no
        # pair has Internet capacity).
        blocks = (artifacts.c1_block, artifacts.c2_block, artifacts.c3_block, artifacts.c4_block)
        self._rhs_blocks = [block for block in blocks if block is not None]
        # Build-time capacity RHS, the baseline refresh_capacity_rhs
        # scales: C2 compute caps and C3 Internet caps as of the
        # capacity book / compute calibration the cache was built from.
        self._base_c2_rhs = artifacts.c2_block.rhs.copy()
        self._base_c3_rhs = (
            artifacts.c3_block.rhs.copy() if artifacts.c3_block is not None else None
        )

    def __getstate__(self):
        raise TypeError(
            "PlanCache holds a lock and a live solver session and cannot cross a "
            "process boundary; the far side builds its own from its setup"
        )

    @property
    def num_variables(self) -> int:
        return self._lp.num_variables

    @property
    def num_constraints(self) -> int:
        return self._lp.num_constraints

    def demand_counts(
        self, demand: Mapping[Tuple[int, CallConfig], float], from_slot: int = 0
    ) -> np.ndarray:
        """Per-C1-group call counts for one day's demand table.

        A key the structure does not cover (a raw config, a slot past
        the day) raises ``KeyError``; a positive count for a slot before
        ``from_slot`` raises ``ValueError`` naming its key, because a
        solve from ``from_slot`` frees that slot's C1 rows and would
        drop the calls silently.
        """
        counts = np.zeros(len(self._artifacts.groups))
        for key, value in demand.items():
            if value > 0:
                if key[0] < from_slot:
                    raise ValueError(
                        f"demand key {key!r} is before the horizon's first slot {from_slot}"
                    )
                counts[self._group_index[key]] += value
        return counts

    def estimate_counts(self, estimate: np.ndarray, from_slot: int = 0) -> np.ndarray:
        """Per-C1-group call counts for a ``(raw configs, slots)`` matrix.

        ``estimate``'s rows follow the setup's ``universe.top(top_n_configs)``
        (what ``expected_matrix``, ``counts_matrix`` and forecasts return)
        and its columns the day's slots.  One grouped add in row order
        scales each row by its reduction factor onto its reduced config
        (§6.2), and non-positive sums count as no demand: bit for bit the
        counts :meth:`demand_counts` gives for ``_table_from_matrix``'s
        table of the same matrix.  A positive sum before ``from_slot``
        raises ``ValueError`` naming its (slot, reduced config) key.
        """
        estimate = np.asarray(estimate)
        n_configs = len(self._artifacts.configs)
        shape = (self._raw_reduced.size, self.scenario.slots_per_day)
        if estimate.shape != shape:
            raise ValueError(f"estimate matrix has shape {estimate.shape}, expected {shape}")
        grouped = np.zeros((n_configs, shape[1]))
        np.add.at(grouped, self._raw_reduced, estimate * self._raw_factor[:, None])
        counts = grouped.T.ravel()  # the C1 groups' slot-major order
        counts[~(counts > 0)] = 0.0
        early = np.flatnonzero(counts[: from_slot * n_configs])
        if early.size:
            key = self._artifacts.groups[int(early[0])]
            raise ValueError(f"demand key {key!r} is before the horizon's first slot {from_slot}")
        return counts

    @property
    def x_columns(self) -> int:
        """The LP's x (assignment) columns, slot-ordered."""
        return self._artifacts.n_cols

    def plan_of(self, x: np.ndarray) -> OfflinePlan:
        """The :class:`OfflinePlan` of x column values over this LP."""
        return OfflinePlan.from_columns(x, self._artifacts)

    def horizon_columns(self, from_slot: int) -> int:
        """LP columns a solve from ``from_slot`` loads: the x columns of
        slots ≥ ``from_slot`` plus the link-peak columns."""
        return self.num_variables - self.first_column(from_slot)

    def first_column(self, from_slot: int) -> int:
        """The first x column of slot ``from_slot``: the x columns from
        here on are the ones a solve from ``from_slot`` plans."""
        slots = self.scenario.slots_per_day
        if not 0 <= from_slot < slots:
            raise ValueError(f"from_slot {from_slot} is outside the day's slots [0, {slots})")
        return int(np.searchsorted(self._artifacts.col_t, from_slot))

    def _horizon(self, from_slot: int) -> Tuple[int, np.ndarray]:
        """(first column, free rows) of a solve from ``from_slot``.

        The free rows are those no kept x column touches: the C1, C2,
        C3 and C5 rows of earlier slots, which only dropped columns and
        the link peaks (whose C5 rows read ``-y <= 0``) reach.  Computed
        once per slot; the mask is read-only.
        """
        horizon = self._horizons.get(from_slot)
        if horizon is None:
            first = self.first_column(from_slot)
            matrix = self._prepared.matrix
            touched = np.zeros(matrix.shape[0], dtype=bool)
            kept = slice(matrix.indptr[first], matrix.indptr[self._artifacts.y_base])
            touched[matrix.indices[kept]] = True
            free = ~touched
            free.flags.writeable = False
            horizon = self._horizons[from_slot] = (first, free)
        return horizon

    def refresh_capacity_rhs(
        self,
        internet_factor=None,
        compute_factor=None,
        from_slot: int = 0,
    ) -> None:
        """Rewrite the C2/C3 capacity right-hand sides in place.

        ``compute_factor(slot, dc_code)`` and ``internet_factor(slot,
        country_code, dc_code)`` return a multiplier on the *build-time*
        capacity of that C2 (per DC) or C3 (per country and DC) row;
        ``None`` restores that family's baseline in one copy, with no
        per-row call.  :meth:`solve_day` calls this with its
        ``capacity`` factors before every solve, so an outage or a cut is
        an RHS-only edit, structurally identical to a demand change, and
        lasts exactly one solve.

        Only the rows of slots ≥ ``from_slot`` are scaled; earlier rows
        keep their baseline.  A solve from ``from_slot`` loads those rows
        free, so their factors could not matter: :meth:`solve_day`
        passes its own ``from_slot``.

        Factors can only shrink what the built structure can express:
        pairs with zero build-time Internet capacity have no Internet
        columns, so a factor > 1 on them has nothing to enable.
        """
        with self._lock:
            artifacts = self._artifacts
            rhs = self._base_c2_rhs
            if compute_factor is not None:
                rhs = rhs.copy()
                # C2 and C3 rows are slot-ordered, like the columns.
                for i in range(int(np.searchsorted(artifacts.c2_slot, from_slot)), rhs.size):
                    rhs[i] *= compute_factor(
                        int(artifacts.c2_slot[i]),
                        artifacts.dc_codes[int(artifacts.c2_dc[i])],
                    )
            artifacts.c2_block.rhs[:] = rhs
            if artifacts.c3_block is not None:
                country_codes = self.scenario.country_codes
                rhs = self._base_c3_rhs
                if internet_factor is not None:
                    rhs = rhs.copy()
                    for i in range(int(np.searchsorted(artifacts.c3_slot, from_slot)), rhs.size):
                        rhs[i] *= internet_factor(
                            int(artifacts.c3_slot[i]),
                            country_codes[int(artifacts.c3_country[i])],
                            artifacts.dc_codes[int(artifacts.c3_dc[i])],
                        )
                artifacts.c3_block.rhs[:] = rhs

    def solve_day(
        self,
        demand: Union[Mapping[Tuple[int, CallConfig], float], np.ndarray],
        e2e_bound_ms: float = JointLpOptions.e2e_bound_ms,
        capacity: Optional[CapacityFactors] = None,
        from_slot: int = 0,
    ) -> JointLpResult:
        """Solve the plan for slots ≥ ``from_slot`` under the C4 bound
        ``e2e_bound_ms``.

        ``demand`` is either a table keyed by (slot of day, reduced
        config) (:meth:`demand_counts`) or a ``(raw configs, slots)``
        estimate matrix in the setup's top-config order
        (:meth:`estimate_counts`, what a replan round passes); both give
        the same C1 counts for the same numbers.  Installs the day's
        counts (C1), the capacities scaled by ``capacity`` (C2/C3, see
        :meth:`refresh_capacity_rhs`; ``None`` keeps the build-time
        capacities) and the bound (C4) on the cached blocks, then solves.
        If the solve *raises*, the previous right-hand sides are
        restored, so the cache (and its persistent session's sent-bounds
        bookkeeping) never ends up describing a day it did not solve.

        ``from_slot`` (in ``[0, slots_per_day)``, else ``ValueError``)
        is the horizon an intraday replan solves: only the x columns of
        slots ≥ ``from_slot`` and the link-peak columns are loaded, and
        every row no kept x column touches is loaded free, so earlier
        slots' capacities cannot matter.  ``demand`` must then have no
        positive count before ``from_slot`` (``ValueError``).  The
        returned plan has no entries before ``from_slot``; 0 plans the
        whole day.  The result keeps its x column values
        (``JointLpResult.x``) and builds its assignment table only when
        it is read.

        Horizons this cache already solved under the same loaded row
        bounds are served from its memo without running HiGHS: the same
        status, objective, iterations and plan, bit for bit.  The
        persistent session only ever sees the bounds of the solves it
        runs.
        """
        first_col, free_rows = self._horizon(from_slot)
        if isinstance(demand, np.ndarray):
            counts = self.estimate_counts(demand, from_slot)
        else:
            counts = self.demand_counts(demand, from_slot)
        internet_factor, compute_factor = capacity if capacity is not None else (None, None)
        artifacts = self._artifacts
        with self._lock:
            saved = [block.rhs.copy() for block in self._rhs_blocks]
            self.solves += 1
            try:
                self.refresh_capacity_rhs(internet_factor, compute_factor, from_slot=from_slot)
                artifacts.c1_block.rhs[:] = counts
                artifacts.c4_block.rhs[0] = e2e_bound_ms * counts.sum()
                key = _digest(np.asarray([from_slot]), *self._prepared.row_bounds(free_rows))
                solved = self._memo.get(key)
                solution = (
                    solved.solution()
                    if solved is not None
                    else self._prepared.solve(first_col, free_rows)
                )
            except BaseException:
                for block, rhs in zip(self._rhs_blocks, saved):
                    block.rhs[:] = rhs
                raise
            if solved is not None:
                self.memo_hits += 1
                self._memo.move_to_end(key)
            elif self._prepared.in_session:
                # Only the session's results are a function of the key:
                # the linprog fallback presolves under its own tolerances.
                self._memo[key] = _SolvedPlan.of(solution)
                if len(self._memo) > self.MEMO_SIZE:
                    self._memo.popitem(last=False)
            return extract_result(solution, artifacts)


def _optimal_assignment(solved: JointLpResult, day: int) -> AssignmentTable:
    """A day's plan, or :class:`PlanningError` naming the day."""
    if not solved.is_optimal:
        raise PlanningError(
            f"Titan-Next planning LP failed for day {day}: {solved.status}",
            status=solved.status,
            day=day,
        )
    return solved.assignment


def plan_day(
    setup: EuropeSetup, demand: Mapping[Tuple[int, CallConfig], float], day: int
) -> AssignmentTable:
    """One day's Titan-Next plan through the setup's :class:`PlanCache`.

    ``demand`` maps (slot of day, reduced config) to call counts; the
    plan meets the day's §7.5 E2E bound.  Raises :class:`PlanningError`
    naming the day when the LP does not solve to optimality.
    """
    solved = setup.plan_cache().solve_day(demand, e2e_bound_ms=day_e2e_bound_ms(day))
    return _optimal_assignment(solved, day)


# ---------------------------------------------------------------------------
# Oracle evaluation (§7)
# ---------------------------------------------------------------------------


def run_oracle_day(
    setup: EuropeSetup,
    day: int,
    policies: Optional[Sequence[str]] = None,
    demand: Optional[Dict[Tuple[int, CallConfig], float]] = None,
    titan_next_assignment: Optional[AssignmentTable] = None,
):
    """Run the §7 oracle comparison for one day.

    Returns ``{policy name: EvaluationResult}``.  Titan-Next plans
    ``demand`` (keyed by slot of day and reduced config) through
    :func:`plan_day` unless ``titan_next_assignment`` supplies the
    already-solved plan (how a :class:`~repro.core.sweep.SweepRunner`
    worker consumes the planning phase's plan).

    Scoring runs through the vectorized
    :func:`~repro.analysis.metrics.evaluate_batch` path (the scalar
    ``evaluate_assignment`` reference reproduces it entry for entry).
    """
    from ..analysis.metrics import evaluate_batch

    if demand is None:
        demand = oracle_demand_for_day(setup, day)
    registry = {
        "wrr": lambda: WrrPolicy(setup.scenario),
        "titan": lambda: TitanPolicy(setup.scenario),
        "lf": lambda: LocalityFirstPolicy(setup.scenario),
        "lf-e2e": lambda: LocalityFirstPolicy(setup.scenario, objective="total_e2e"),
    }
    chosen = policies if policies is not None else ("wrr", "titan", "lf", "titan-next")
    results = {}
    for name in chosen:
        if name == "titan-next":
            assignment = titan_next_assignment
            if assignment is None:
                assignment = plan_day(setup, demand, day)
        else:
            assignment = registry[name]().assign(demand)
        results[name] = evaluate_batch(setup.scenario, assignment, name)
    return results


# ---------------------------------------------------------------------------
# Prediction-based evaluation (§8)
# ---------------------------------------------------------------------------


@dataclass
class PredictionDayResult:
    """Outcome of one §8 prediction-mode day for one controller.

    ``assignments`` is the controller's :class:`AssignmentBatch`, its
    structure-of-arrays output, which iterates as
    :class:`~repro.core.controller.CallAssignment` views.
    ``evaluation`` holds the §7.1 score when it was computed where the
    result was produced (a sweep run with ``evaluate=True`` scores
    in-pool, against the sweep setup's scenario, so the metric work
    parallelizes too);
    consumers that want the pooled score read it directly —
    :meth:`evaluate` always re-scores against the scenario it is
    given, so scoring a *modified* scenario (the ablation pattern)
    can never silently return a stale result.
    """

    policy: str
    assignments: AssignmentBatch
    stats: Optional[ControllerStats] = None
    evaluation: Optional[object] = None

    def realized_table(self, slots_per_day: int = SLOTS_PER_DAY) -> AssignmentTable:
        from ..analysis.metrics import realized_assignment_table

        return realized_assignment_table(self.assignments, slots_per_day)

    def evaluate(self, scenario: Scenario, slots_per_day: int = SLOTS_PER_DAY):
        """Score this day through the vectorized evaluation path,
        straight off the batch's parallel arrays (no dict-table round
        trip).  Returns an
        :class:`~repro.analysis.metrics.EvaluationResult`.

        Always recomputes against the given ``scenario`` — a pooled
        :attr:`evaluation` (scored against the sweep setup's own
        scenario) is deliberately *not* returned here; read the
        attribute when that is what you want.
        """
        from ..analysis.metrics import evaluate_batch

        return evaluate_batch(scenario, self.assignments, self.policy, slots_per_day=slots_per_day)


def _baseline_controller(setup: EuropeSetup, name: str, seed: int):
    """The first-joiner baseline controllers, with their pinned seeds."""
    if name == "wrr":
        return FirstJoinerWrr(setup.scenario, seed=seed + 2)
    if name == "lf":
        return FirstJoinerLf(setup.scenario)
    if name == "titan":
        return FirstJoinerTitan(setup.scenario, seed=seed + 3)
    raise KeyError(f"unknown prediction-mode policy {name!r}")


def _prediction_day_result(
    setup: EuropeSetup,
    name: str,
    table: CallTable,
    seed: int,
    reduced: bool = True,
    plan_assignment: Optional[AssignmentTable] = None,
) -> PredictionDayResult:
    """One policy's §8 day off an already-synthesized trace.

    The single per-(day, policy) unit of replay work — shared by
    :func:`run_prediction_day` and the :class:`~repro.core.sweep`
    workers, which is what keeps the fan-out byte-identical to the
    serial loop.
    """
    if name == "titan-next":
        if plan_assignment is None:
            raise ValueError("titan-next replay needs the solved plan assignment")
        plan = OfflinePlan.from_assignment(plan_assignment)
        controller = TitanNextController(
            setup.scenario, plan, seed=seed + 1, reduce_configs=reduced
        )
        return PredictionDayResult("titan-next", controller.process_table(table), controller.stats)
    controller = _baseline_controller(setup, name, seed)
    return PredictionDayResult(name, controller.process_table(table), controller.stats)


def run_prediction_day(
    setup: EuropeSetup,
    day: int,
    policies: Optional[Sequence[str]] = None,
    reduced: bool = True,
    seed: int = 71,
    trace: Optional[CallTable] = None,
) -> Dict[str, PredictionDayResult]:
    """The §8 experiment for one day.

    Titan-Next plans on Holt-Winters forecasts through :func:`plan_day`
    — the setup's one planning LP, so the day equals a
    :class:`~repro.core.sweep.SweepRunner` window's day bit for bit —
    and assigns per call via the online controller; WRR / LF / Titan
    assign per call from the first joiner's country.  ``reduced=False``
    feeds raw call configs to an LP of their own (the Table 4 ablation,
    which inflates migrations).

    The day's trace is synthesized once as a :class:`CallTable` and
    every controller consumes it through its batch ``process_table``
    path (identical, call for call, to the scalar loops); ``trace``
    lets callers that already hold the day's table (e.g. the two
    :func:`migration_comparison` arms, which share one seed) skip the
    synthesis entirely.
    """
    chosen = policies if policies is not None else ("wrr", "lf", "titan", "titan-next")

    if trace is None:
        generator = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=seed)
        trace = generator.table_for_day(day)

    results: Dict[str, PredictionDayResult] = {}
    for name in chosen:
        plan_assignment: Optional[AssignmentTable] = None
        if name == "titan-next":
            predicted = predicted_demand_for_day(setup, day, reduced=reduced)
            if reduced:
                plan_assignment = plan_day(setup, predicted, day)
            else:
                options = JointLpOptions(e2e_bound_ms=day_e2e_bound_ms(day))
                solved = JointAssignmentLp(setup.scenario, predicted, options).solve()
                plan_assignment = _optimal_assignment(solved, day)
        results[name] = _prediction_day_result(
            setup, name, trace, seed, reduced, plan_assignment=plan_assignment
        )
    return results


def migration_comparison(
    setup: EuropeSetup,
    day: int,
    seed: int = 73,
) -> Dict[str, Dict[str, float]]:
    """Table 4: migration behaviour with vs without reduced call configs.

    Returns, per arm (``"reduced"`` / ``"raw"``), the inter-DC
    migration rate the paper reports plus the cheap routing-option
    migration rate and the fraction of calls the plan could not place
    (the §6.4 surge path).

    Both arms run on the same seed, hence the same call realization —
    the day's trace is synthesized once and shared between them.
    """
    generator = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=seed)
    table = generator.table_for_day(day)
    rates: Dict[str, Dict[str, float]] = {}
    for label, reduced in (("reduced", True), ("raw", False)):
        result = run_prediction_day(
            setup,
            day,
            policies=("titan-next",),
            reduced=reduced,
            seed=seed,
            trace=table,
        )["titan-next"]
        assert result.stats is not None
        rates[label] = {
            "dc_migration_rate": result.stats.dc_migration_rate,
            "option_migration_rate": result.stats.option_migration_rate,
            "unplanned_rate": result.stats.unplanned_rate,
        }
    return rates
