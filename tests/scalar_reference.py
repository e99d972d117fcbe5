"""Scalar references for the batch stages of ``repro``.

Each stage of the pipeline has one implementation in ``src/``: its
batch path.  This module keeps the per-call and per-entry renditions
those paths were built from, as the independent oracles that the
batch ≡ scalar tests and the speed pins in ``benchmarks/`` compare
against:

* the §6.1(2) forecast: :func:`predicted_demand_for_day_reference`,
  over :func:`sample_count` and :func:`group_by_reduced`;
* the Fig 13 LP build: :meth:`ReferenceLp.build_reference`, and
  :func:`build`, the product build's x-column name table;
* trace synthesis: :class:`ScalarTraceGenerator`, over
  :func:`counts_for_slot`;
* the §6.4 and §8.1 controllers: :class:`ScalarTitanNext` on a
  :class:`ScalarPlan`, :class:`ScalarWrr`, :class:`ScalarLf` and
  :class:`ScalarTitan`, the first two on a :class:`ScalarTracker`;
* §7.1 scoring: :func:`evaluate_assignment`.

The oracle classes subclass the product classes only to reuse their
setup tables (bucket lists, fallback DCs, plan keys, per-config draw
tables and Philox keys, allowed DCs and options).  Admission, replay,
scoring and LP assembly here are their own, and an oracle is built
directly, not by swapping the class of a product object.  Every random
draw comes from the same stream, in the same order, as in the batch
path, so the two agree call for call.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import EvaluationResult, LoadMatrix
from repro.core.controller import (
    GUESS_MEDIA,
    CallAssignment,
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
    TitanNextController,
    _CapacityTracker,
    _ConfigLoad,
    _intra_country_guess,
)
from repro.core.forecast import forecast_day
from repro.core.lp import (
    LOCALITY_EPSILON,
    SINGLE_DC_CAP_RELAX,
    TIE_BREAK_EPSILON,
    JointAssignmentLp,
    _tie_break_unit,
)
from repro.core.plan import QUOTA_EPS, OfflinePlan, PlanEntry
from repro.core.titan_next import HISTORY_WEEKS, EuropeSetup, InsufficientHistory
from repro.net.latency import INTERNET, WAN
from repro.solver.model import LinearProgram, LinExpr
from repro.workload.configs import CallConfig
from repro.workload.demand import SLOTS_PER_DAY, DemandModel, _poisson_from_uniform
from repro.workload.traces import (
    Call,
    CallTable,
    TraceGenerator,
    duration_from_uniform,
    first_joiner_from_uniform,
)

# ---------------------------------------------------------------------------
# Demand and the forecast (§6.1(2), §6.2)
# ---------------------------------------------------------------------------


def sample_count(demand: DemandModel, config: CallConfig, slot: int) -> int:
    """Poisson-sampled calls for (config, slot), deterministic."""
    lam = demand.expected_count(config, slot) * demand.day_shock(slot // SLOTS_PER_DAY)
    if lam <= 0:
        return 0
    u = demand._config_uniforms(config, slot, 1)
    return int(_poisson_from_uniform(u, np.asarray([lam]))[0])


def counts_for_slot(
    demand: DemandModel, slot: int, top_n: Optional[int] = None
) -> Dict[CallConfig, int]:
    """Sampled counts for every (top_n) config in one slot."""
    demands = demand._top(top_n)
    counts = demand.counts_matrix(slot, 1, top_n)[:, 0]
    return {
        demands[i].config: int(count) for i, count in enumerate(counts) if count > 0
    }


def group_by_reduced(
    counts: Mapping[CallConfig, float],
) -> Dict[CallConfig, float]:
    """Group call-config counts by reduced config (§6.2).

    ``N`` calls of a config with reduction factor ``g`` become ``N * g``
    reduced calls (the paper's example: 100 × (DE-2, audio) → 200 ×
    (DE-1, audio)), keeping total resource requirements identical.
    Configs with different media types are never merged.
    """
    grouped: Dict[CallConfig, float] = {}
    for config, count in counts.items():
        if count < 0:
            raise ValueError("negative call count")
        reduced = config.reduced()
        grouped[reduced] = grouped.get(reduced, 0.0) + count * config.reduction_factor()
    return grouped


def predicted_demand_for_day_reference(
    setup: EuropeSetup, day: int, reduced: bool = True
) -> Dict[Tuple[int, CallConfig], float]:
    """Scalar ``predicted_demand_for_day``: samples each history point
    per (config, slot), fits one Holt-Winters model per config, and
    regroups per slot."""
    history_slots = HISTORY_WEEKS * 7 * SLOTS_PER_DAY
    start = day * SLOTS_PER_DAY - history_slots
    if start < 0:
        raise InsufficientHistory(day, HISTORY_WEEKS)
    raw: Dict[Tuple[int, CallConfig], float] = {}
    for item in setup.universe.top(setup.top_n_configs):
        history = np.asarray(
            [
                sample_count(setup.demand, item.config, s)
                for s in range(start, start + history_slots)
            ]
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
# The Fig 13 LP build
# ---------------------------------------------------------------------------


def build(
    builder: JointAssignmentLp,
) -> Tuple[LinearProgram, Dict[Tuple[int, CallConfig, str, str], str]]:
    """The product's array-first LP and its x-column name table, keyed
    like :meth:`ReferenceLp.build_reference`'s."""
    lp, artifacts = builder._build()
    return lp, {artifacts.key_of(j): lp.variable_name(j) for j in range(artifacts.n_cols)}


class ReferenceLp(JointAssignmentLp):
    """The Fig 13 LP assembled term by term."""

    def build_reference(
        self,
    ) -> Tuple[LinearProgram, Dict[Tuple[int, CallConfig, str, str], str]]:
        """The scalar LP assembly (per-term ``add_term`` calls): the
        ground truth of the array-first build, and a readable rendition
        of the Fig 13 formulation."""
        scenario = self.scenario
        opts = self.options
        lp = LinearProgram("titan-next")
        var_names: Dict[Tuple[int, CallConfig, str, str], str] = {}

        x_vars: Dict[Tuple[int, CallConfig, str, str], object] = {}
        for (t, config), count in sorted(
            self.demand.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            for dc in self._allowed_dcs(config):
                for option in self._allowed_options(config, dc):
                    name = f"x[{t}][{config}][{dc}][{option}]"
                    x_vars[(t, config, dc, option)] = lp.add_variable(name)
                    var_names[(t, config, dc, option)] = name

        y_vars = {}
        if opts.objective == "sum_of_peaks":
            for link_idx in range(scenario.wan_link_count):
                y_vars[link_idx] = lp.add_variable(f"y[{link_idx}]")

        # C1 — assign all calls of every (t, c).
        for (t, config), count in self.demand.items():
            expr = LinExpr()
            for dc in self._allowed_dcs(config):
                for option in self._allowed_options(config, dc):
                    expr.add_term(x_vars[(t, config, dc, option)])
            lp.add_constraint(expr == count, name=f"C1[{t}][{config}]")

        # C2 — per-DC compute capacity per slot.
        for t in self.slots:
            for dc in scenario.dc_codes:
                expr = LinExpr()
                nonzero = False
                for config in self.configs:
                    if (t, config) not in self.demand:
                        continue
                    if dc not in self._allowed_dcs(config):
                        continue
                    cores = config.compute_cores()
                    for option in self._allowed_options(config, dc):
                        expr.add_term(x_vars[(t, config, dc, option)], cores)
                        nonzero = True
                if nonzero:
                    cap = scenario.compute_caps[dc]
                    if opts.single_dc_per_config:
                        cap *= SINGLE_DC_CAP_RELAX
                    lp.add_constraint(expr <= cap, name=f"C2[{t}][{dc}]")

        # C3 — Internet capacity per (slot, country, DC).
        if opts.allow_internet:
            for t in self.slots:
                for country in scenario.country_codes:
                    for dc in scenario.dc_codes:
                        cap = scenario.internet_cap_gbps(country, dc)
                        cap *= opts.internet_capacity_factor
                        expr = LinExpr()
                        nonzero = False
                        for config in self.configs:
                            if (t, config) not in self.demand:
                                continue
                            bw = config.country_bandwidth_gbps(country)
                            if bw <= 0:
                                continue
                            key = (t, config, dc, INTERNET)
                            if key in x_vars:
                                expr.add_term(x_vars[key], bw)
                                nonzero = True
                        if nonzero:
                            lp.add_constraint(expr <= cap, name=f"C3[{t}][{country}][{dc}]")

        # C4 — average max-E2E latency bound (Titan-Next only).
        if opts.objective == "sum_of_peaks":
            total_calls = sum(self.demand.values())
            expr = LinExpr()
            for (t, config, dc, option), var in x_vars.items():
                expr.add_term(var, scenario.e2e_latency_ms(config, dc, option))
            lp.add_constraint(expr <= opts.e2e_bound_ms * total_calls, name="C4")

        # C5 — link peaks dominate every slot's WAN load.
        if opts.objective == "sum_of_peaks":
            for t in self.slots:
                loads: Dict[int, LinExpr] = {}
                for config in self.configs:
                    if (t, config) not in self.demand:
                        continue
                    for dc in self._allowed_dcs(config):
                        if (t, config, dc, WAN) not in x_vars:
                            continue
                        var = x_vars[(t, config, dc, WAN)]
                        for country, _ in config.participants:
                            bw = config.country_bandwidth_gbps(country)
                            if bw <= 0:
                                continue
                            for link_idx in scenario.link_indices(country, dc):
                                loads.setdefault(link_idx, LinExpr()).add_term(var, bw)
                for link_idx, load in loads.items():
                    load.add_term(y_vars[link_idx], -1.0)
                    lp.add_constraint(load <= 0, name=f"C5[{t}][{link_idx}]")

        # Objective.
        objective = LinExpr()
        if opts.objective == "sum_of_peaks":
            for var in y_vars.values():
                objective.add_term(var)
            for (t, config, dc, option), var in x_vars.items():
                objective.add_term(
                    var, LOCALITY_EPSILON * scenario.total_latency_ms(config, dc, option)
                )
            for (t, config, dc, option), var in x_vars.items():
                objective.add_term(var, TIE_BREAK_EPSILON * _tie_break_unit(config, dc, option))
        elif opts.objective == "total_latency":
            for (t, config, dc, option), var in x_vars.items():
                objective.add_term(var, scenario.total_latency_ms(config, dc, option))
        else:  # total_e2e
            for (t, config, dc, option), var in x_vars.items():
                objective.add_term(var, scenario.e2e_latency_ms(config, dc, option))
        lp.set_objective(objective)
        return lp, var_names


# ---------------------------------------------------------------------------
# Trace synthesis
# ---------------------------------------------------------------------------


class ScalarTraceGenerator(TraceGenerator):
    """One :class:`Call` object per call, drawn in a per-(config, slot)
    loop from the slot-addressed Philox stream ``table_for_window``
    reads in bulk."""

    def _call_rng(self, config: CallConfig, slot: int) -> np.random.Generator:
        """Slot-addressed Philox stream for one config's calls: key
        ``(seed, stable_hash(config))``, the slot in the counter's
        third word."""
        counter = np.array([0, 0, np.uint64(slot), 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=self._philox_key(config), counter=counter))

    def calls_for_slot(self, slot: int, id_offset: int = 0) -> List[Call]:
        """All calls starting in one 30-minute slot."""
        calls: List[Call] = []
        counts = counts_for_slot(self.demand, slot, top_n=self.top_n_configs)
        call_id = id_offset
        for config, count in sorted(counts.items(), key=lambda kv: str(kv[0])):
            rng = self._call_rng(config, slot)
            draw = self._draw(config)
            for _ in range(count):
                u_first = rng.random()
                u_duration = rng.random()
                first = draw.countries[int(first_joiner_from_uniform(draw.cum_weights, u_first))]
                duration = int(duration_from_uniform(u_duration))
                calls.append(Call(call_id, config, slot, duration, first))
                call_id += 1
        return calls

    def calls_for_window(self, start_slot: int, slots: int) -> List[Call]:
        """All calls starting within [start_slot, start_slot + slots)."""
        if slots < 0:
            raise ValueError("slots must be non-negative")
        calls: List[Call] = []
        for slot in range(start_slot, start_slot + slots):
            calls.extend(self.calls_for_slot(slot, id_offset=len(calls)))
        return calls

    def calls_for_day(self, day: int) -> List[Call]:
        """All calls starting on one day (day 0 = Monday)."""
        return self.calls_for_window(day * SLOTS_PER_DAY, SLOTS_PER_DAY)


def call_table(calls: Sequence[Call]) -> CallTable:
    """``calls`` as one :class:`CallTable`, configs in first-seen order
    (call ids become the table's own, ``0..len-1``)."""
    configs: Dict[CallConfig, int] = {}
    for call in calls:
        configs.setdefault(call.config, len(configs))
    return CallTable(
        list(configs),
        [configs[call.config] for call in calls],
        [call.start_slot for call in calls],
        [call.duration_slots for call in calls],
        [call.config.countries.index(call.first_joiner_country) for call in calls],
    )


# ---------------------------------------------------------------------------
# The offline plan and the Titan-Next controller (§6.4)
# ---------------------------------------------------------------------------


def weighted_pick(weights: Sequence[float], u: float) -> int:
    """Inverse-CDF draw over ``weights`` from one uniform: running sums
    in bucket order, ``target = u * total``, the first ``target <
    cumulative``, else the last bucket.  ``weights`` must be non-empty
    and positive."""
    total = 0.0
    cumulative = []
    for w in weights:
        total += w
        cumulative.append(total)
    target = u * total
    for i, c in enumerate(cumulative):
        if target < c:
            return i
    return len(cumulative) - 1


class ScalarPlan(OfflinePlan):
    """The plan's per-call quota accounting, on its own dict entries."""

    def configs_for_slot(self, slot: int) -> List[CallConfig]:
        return [c for (t, c) in self._entries if t == slot]

    def sample(
        self, slot: int, config: CallConfig, rng: np.random.Generator
    ) -> Optional[Tuple[str, str]]:
        """Weighted-random (DC, option) draw from remaining quotas.

        Draws exactly one uniform from ``rng``, and none at all when
        every bucket is exhausted.
        """
        entry = self._entries.get((slot, config))
        if entry is None:
            return None
        buckets = [(key, w) for key, w in entry.weights() if w > QUOTA_EPS]
        if not buckets:
            return None
        pick = weighted_pick([w for _, w in buckets], float(rng.random()))
        return buckets[pick][0]

    def consume(
        self, slot: int, config: CallConfig, dc: str, option: str, amount: float = 1.0
    ) -> bool:
        """Decrement a bucket's remaining quota; False if exhausted."""
        entry = self._entries.get((slot, config))
        if entry is None:
            return False
        key = (dc, option)
        remaining = entry.buckets.get(key, 0.0)
        if remaining < amount - QUOTA_EPS:
            return False
        entry.buckets[key] = remaining - amount
        return True

    def refund(
        self, slot: int, config: CallConfig, dc: str, option: str, amount: float = 1.0
    ) -> None:
        """Return quota to a bucket (undo a tentative :meth:`consume`)."""
        entry = self._entries.setdefault((slot, config), PlanEntry())
        key = (dc, option)
        entry.buckets[key] = entry.buckets.get(key, 0.0) + amount

    def peek(self, slot: int, config: CallConfig, dc: str, option: str) -> float:
        entry = self._entries.get((slot, config))
        if entry is None:
            return 0.0
        return entry.buckets.get((dc, option), 0.0)


class ScalarTitanNext(TitanNextController):
    """The §6.4 controller one call at a time, on a :class:`ScalarPlan`."""

    def __init__(
        self,
        scenario,
        plan: ScalarPlan,
        seed: int = 53,
        reduce_configs: bool = True,
    ) -> None:
        super().__init__(scenario, plan, seed, reduce_configs)
        #: Most recently used planning config per country (§6.4).
        self._recent_config: Dict[str, CallConfig] = {}
        #: Tentative quota consumption per in-flight call: the guessed
        #: config whose plan bucket was sampled at assign time, plus
        #: whether a full unit of quota was actually consumed (a
        #: fractional bucket can be sampled but hold less than one
        #: unit; refunding it anyway would mint quota from nothing).
        self._pending: Dict[int, Optional[Tuple[CallConfig, bool]]] = {}

    def _plan_slot(self, call: Call) -> int:
        return call.start_slot % self.scenario.slots_per_day

    def _fallback(self, call: Call) -> Tuple[str, str]:
        return self._fallback_for_country(call.first_joiner_country)

    def assign(self, call: Call) -> Tuple[str, str]:
        """Initial assignment from the first joiner's country only: the
        most recently used planning config for the country, then the
        intra-country configs of each media type, then the
        nearest-DC fallback (§6.4, "handling surge in calls")."""
        slot = self._plan_slot(call)
        country = call.first_joiner_country
        guesses = []
        if country in self._recent_config:
            guesses.append(self._recent_config[country])
        for media in GUESS_MEDIA:
            candidate = _intra_country_guess(country, media)
            if candidate not in guesses:
                guesses.append(candidate)
        for guess in guesses:
            choice = self.plan.sample(slot, guess, self.rng)
            if choice is not None:
                dc, option = choice
                consumed = self.plan.consume(slot, guess, dc, option)
                self._pending[call.call_id] = (guess, consumed)
                return dc, option
        self.stats.unplanned += 1
        self._pending[call.call_id] = None
        return self._fallback(call)

    def reveal(self, call: Call, initial: Tuple[str, str]) -> CallAssignment:
        """Reconcile once the true (reduced) config is known (~5 min in):
        a right guess keeps its assign-time consumption; otherwise the
        tentative quota is refunded and the call follows the true
        config's plan, migrating if that lands elsewhere."""
        slot = self._plan_slot(call)
        true_reduced = self._plan_key(call.config)
        self._recent_config[call.first_joiner_country] = true_reduced
        initial_dc, initial_option = initial
        self.stats.calls += 1
        pending = self._pending.pop(call.call_id, None)
        guess, consumed = pending if pending is not None else (None, False)

        if guess == true_reduced:
            return CallAssignment(call, initial_dc, initial_option, initial_dc, initial_option)
        if consumed:
            # Undo only what was actually decremented.
            self.plan.refund(slot, guess, initial_dc, initial_option)

        choice = self.plan.sample(slot, true_reduced, self.rng)
        if choice is None:
            # No plan for this config at all: stay where we are.
            return CallAssignment(call, initial_dc, initial_option, initial_dc, initial_option)
        final_dc, final_option = choice
        self.plan.consume(slot, true_reduced, final_dc, final_option)
        if final_dc != initial_dc:
            self.stats.dc_migrations += 1
        if final_option != initial_option:
            self.stats.option_migrations += 1
        return CallAssignment(call, initial_dc, initial_option, final_dc, final_option)

    def process(self, call: Call) -> CallAssignment:
        """Assign at first join, then reconcile at config reveal."""
        initial = self.assign(call)
        return self.reveal(call, initial)


# ---------------------------------------------------------------------------
# The first-joiner baselines (§8.1)
# ---------------------------------------------------------------------------


def weighted_shuffle_order(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Efraimidis–Spirakis weighted-random order from raw uniforms:
    indices by descending ``log(u_i)/w_i``, like successive weighted
    draws without replacement."""
    with np.errstate(divide="ignore"):
        keys = np.log(u) / weights
    return np.argsort(-keys, axis=-1, kind="stable")


class ScalarTracker(_CapacityTracker):
    """The capacity tracker's per-call steps, over the product's
    ``_usage`` layout, so usage compares byte for byte."""

    # -- integer-indexed steps --------------------------------------------

    def compute_headroom_at(self, dc_i: int, slot: int, cores: float) -> bool:
        self._ensure(slot + 1)
        return self._usage[slot, dc_i] + cores <= self._caps[dc_i] + 1e-9

    def internet_headroom_at(self, load: _ConfigLoad, dc_i: int, slot: int) -> bool:
        self._ensure(slot + 1)
        n_dc = len(self.dc_codes)
        for ci, bw in zip(load.country_idx, load.bandwidths):
            if self._usage[slot, n_dc * (1 + ci) + dc_i] + bw > self._pair_caps[ci, dc_i] + 1e-12:
                return False
        return True

    def admit_at(
        self, load: _ConfigLoad, dc_i: int, internet: bool, start: int, end: int
    ) -> None:
        self._ensure(end)
        self._usage[start:end, dc_i] += load.cores
        if internet:
            n_dc = len(self.dc_codes)
            for ci, bw in zip(load.country_idx, load.bandwidths):
                self._usage[start:end, n_dc * (1 + ci) + dc_i] += bw

    # -- string-keyed steps -----------------------------------------------

    def compute_headroom(self, dc: str, slot: int, cores: float) -> bool:
        return self.compute_headroom_at(self.dc_index[dc], slot, cores)

    def internet_headroom(self, config: CallConfig, dc: str, slot: int) -> bool:
        return self.internet_headroom_at(self.load_for(config), self.dc_index[dc], slot)

    def admit(self, config: CallConfig, dc: str, option: str, call: Call) -> None:
        self.admit_at(
            self.load_for(config),
            self.dc_index[dc],
            option == INTERNET,
            call.start_slot,
            call.end_slot,
        )


class ScalarWrr(FirstJoinerWrr):
    """Capacity-tracked WRR one call at a time."""

    def __init__(self, scenario, seed: int = 59) -> None:
        super().__init__(scenario, seed)
        self.tracker = ScalarTracker(scenario)

    def process(self, call: Call) -> CallAssignment:
        self.stats.calls += 1
        keys, weights = self._buckets(call.first_joiner_country)
        order = weighted_shuffle_order(self.rng.random(len(keys)), weights)
        cores = call.config.compute_cores()
        for idx in order:
            dc, option = keys[idx]
            if not self.tracker.compute_headroom(dc, call.start_slot, cores):
                continue
            if option == INTERNET and not self.tracker.internet_headroom(
                call.config, dc, call.start_slot
            ):
                continue
            self.tracker.admit(call.config, dc, option, call)
            return CallAssignment(call, dc, option, dc, option)
        # Everything full: overflow onto the first bucket's WAN.
        self.stats.unplanned += 1
        dc = keys[0][0]
        self.tracker.admit(call.config, dc, WAN, call)
        return CallAssignment(call, dc, WAN, dc, WAN)


class ScalarLf(FirstJoinerLf):
    """Latency-sorted buckets, first with capacity, one call at a time."""

    def __init__(self, scenario) -> None:
        super().__init__(scenario)
        self.tracker = ScalarTracker(scenario)

    def process(self, call: Call) -> CallAssignment:
        self.stats.calls += 1
        cores = call.config.compute_cores()
        for dc, option in self._sorted_buckets(call.first_joiner_country):
            if not self.tracker.compute_headroom(dc, call.start_slot, cores):
                continue
            if option == INTERNET and not self.tracker.internet_headroom(
                call.config, dc, call.start_slot
            ):
                continue
            self.tracker.admit(call.config, dc, option, call)
            return CallAssignment(call, dc, option, dc, option)
        self.stats.unplanned += 1
        dc = self.scenario.dc_codes[0]
        self.tracker.admit(call.config, dc, WAN, call)
        return CallAssignment(call, dc, WAN, dc, WAN)


class ScalarTitan(FirstJoinerTitan):
    """Weighted-random DC by cores, random routing by fraction, one
    call at a time."""

    def _pick_dc(self, u: float) -> int:
        return int(
            np.minimum(
                np.searchsorted(self._cum_probs, u, side="right"),
                len(self._cum_probs) - 1,
            )
        )

    def process(self, call: Call) -> CallAssignment:
        self.stats.calls += 1
        scenario = self.scenario
        dc = scenario.dc_codes[self._pick_dc(self.rng.random())]
        fraction = scenario.internet_fraction(call.first_joiner_country, dc)
        option = INTERNET if self.rng.random() < fraction else WAN
        return CallAssignment(call, dc, option, dc, option)


# ---------------------------------------------------------------------------
# §7.1 scoring
# ---------------------------------------------------------------------------


def evaluate_assignment(
    scenario,
    assignment: Mapping[Tuple[int, CallConfig, str, str], float],
    policy_name: str = "",
) -> EvaluationResult:
    """Score an assignment table entry by entry: realized link loads
    and latency stats, recomputed from the assignment itself."""
    wan = LoadMatrix()
    internet_loads: Dict[Tuple[Tuple[str, str], int], float] = {}
    e2e_values: List[float] = []
    e2e_weights: List[float] = []
    total_calls = 0.0
    wan_edge = 0.0

    for (t, config, dc, option), count in assignment.items():
        if count <= 0:
            continue
        total_calls += count
        e2e_values.append(scenario.e2e_latency_ms(config, dc, option))
        e2e_weights.append(count)
        for country, _ in config.participants:
            bw = config.country_bandwidth_gbps(country) * count
            if bw <= 0:
                continue
            if option == WAN:
                wan_edge += bw
                for link_idx in scenario.link_indices(country, dc):
                    wan.add(link_idx, t, bw)
            else:
                key = ((country, dc), t)
                internet_loads[key] = internet_loads.get(key, 0.0) + bw

    return EvaluationResult(
        policy=policy_name,
        wan=wan,
        internet_loads=internet_loads,
        e2e_values=np.asarray(e2e_values, dtype=float),
        e2e_weights=np.asarray(e2e_weights, dtype=float),
        total_calls=total_calls,
        wan_edge_traffic=wan_edge,
    )
