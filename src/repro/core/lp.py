"""The Titan-Next joint MP-DC + routing LP (Fig 13).

Decision variable ``X[t, c, m, p]`` is the number of calls of reduced
call config *c* in timeslot *t* assigned to MP DC *m* over routing
option *p* (WAN or Internet); ``y_l`` is the peak bandwidth of WAN link
*l*.  The objective minimizes the sum of WAN link peaks — exactly the
quantity the operator is billed on.

Constraints (paper numbering):

* **C1** every call of every (t, c) is assigned somewhere;
* **C2** per-DC compute capacity per slot;
* **C3** Internet path capacity per slot, enforced per (client country,
  DC) pair — the per-pair capacities Titan actually records, a strictly
  tighter, still-linear refinement of the paper's per-DC formulation;
* **C4** the average (over calls) of max-E2E latency is bounded by E;
* **C5** ``y_l`` dominates every slot's load on link *l*.

The same builder also produces the Locality-First baseline (§7.2): same
constraint set minus C4, with the objective replaced by total latency
(or total max-E2E latency for the LF-E2E variant).

The production :meth:`JointAssignmentLp.build` is *array-first*: it
enumerates the LP columns once into flat index arrays, reads the
coefficients from the scenario's own tables — max-E2E latency and
per-country bandwidth from :meth:`Scenario.eval_tables`, WAN link
incidence from :meth:`Scenario.link_incidence_csr`, the tables §7.1
scoring reads — and emits every constraint family as a COO
:class:`~repro.solver.model.ConstraintBlock`: no per-term dict churn,
no string-keyed lookups.  The original scalar builder is kept as
:meth:`JointAssignmentLp.build_reference` to validate equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..analysis.metrics import _csr_offsets
from ..geo.world import stable_hash
from ..net.latency import INTERNET, WAN
from ..solver.model import ConstraintBlock, LinearProgram, LinExpr, Solution
from ..workload.configs import CallConfig
from .scenario import Scenario

#: Assignment: (t, config, dc, option) -> number of calls (fractional).
AssignmentTable = Dict[Tuple[int, CallConfig, str, str], float]

#: Column routing options, by integer code (0 = WAN, 1 = Internet).
COLUMN_OPTIONS = (WAN, INTERNET)

#: Compute-cap relaxation applied in single-DC mode: pinning every
#: config to one DC cannot pack non-aligned per-country peaks into
#: capacity provisioned for the pooled peak, so the ablation grants
#: extra headroom (and reports the lost network savings).
SINGLE_DC_CAP_RELAX = 1.5

#: Tiny locality regularizer added to the sum-of-peaks objective (and
#: to the split-routing LP's).  The LP is indifferent about configs
#: with negligible bandwidth (audio), so a pure vertex solution scatters
#: them arbitrarily — inflating migrations and latency for no peak
#: benefit.  The epsilon breaks those ties toward nearby DCs.
LOCALITY_EPSILON = 1e-6

#: Content-keyed perturbation (sum-of-peaks objective only) that makes
#: the optimal vertex unique: each (config, DC, option) column gets a
#: pseudo-random cost in [0, TIE_BREAK_EPSILON) keyed on its identity,
#: so exactly-tied columns (equal latencies, e.g. symmetric DCs or
#: audio/video twins) no longer span a degenerate optimal face.  A
#: unique optimum is what makes a plan a property of the LP rather than
#: of the solve path: the setup's ``PlanCache`` (a persistent model over
#: the setup's reduced config set, solved without presolve) and a
#: one-shot LP over the same day (``linprog`` with presolve) reach the
#: same plan to the solver's tolerance.  Keyed on content, not column
#: index, so it is identical across cached and one-shot structures.
#: Sized well below the locality term at typical inter-DC latency gaps
#: (1 ms of locality outweighs the whole tie-break range) so it decides
#: ties and sub-millisecond near-ties only — larger values scatter
#: configs to hash-preferred DCs and inflate migrations — while staying
#: above the solver's dual tolerances (1e-7 for one-shot solves, 1e-9
#: for cached ones), below which the perturbation would be ignored and
#: the optimum non-unique again.
TIE_BREAK_EPSILON = 1e-6


def _tie_break_unit(config: CallConfig, dc: str, option: str) -> float:
    """Deterministic pseudo-random unit value keyed on column identity."""
    return stable_hash(f"{config}|{dc}|{option}") / 2.0**32


@dataclass(frozen=True)
class JointLpOptions:
    """Knobs for the LP builder."""

    #: Bound E on the average of max-E2E latency (ms); §7.5 uses 75
    #: on weekdays and 80 on weekends.
    e2e_bound_ms: float = 75.0
    #: Disable Internet routing entirely (the "savings with only MP DC
    #: placement" ablation of §7.4).
    allow_internet: bool = True
    #: Multiplier on Titan's Internet capacities (the "double the
    #: traffic on the Internet" experiment of §7.4 uses 2.0).
    internet_capacity_factor: float = 1.0
    #: Objective: "sum_of_peaks" (Titan-Next), "total_latency" (LF) or
    #: "total_e2e" (the LF variant optimizing total max-E2E latency).
    objective: str = "sum_of_peaks"
    #: Pin each reduced config to exactly one DC (the abandoned ILP idea
    #: of §6.3, approximated by restricting each config's columns to its
    #: latency-best DC; compute caps relax by ``SINGLE_DC_CAP_RELAX``).
    single_dc_per_config: bool = False

    def __post_init__(self) -> None:
        if self.e2e_bound_ms <= 0:
            raise ValueError("e2e_bound_ms must be positive")
        if self.internet_capacity_factor < 0:
            raise ValueError("internet_capacity_factor must be non-negative")
        if self.objective not in ("sum_of_peaks", "total_latency", "total_e2e"):
            raise ValueError(f"unknown objective: {self.objective}")


#: Column values at or below this are left out of an assignment table.
ASSIGNMENT_EPS = 1e-9


class JointLpResult:
    """Solved assignment plan.

    ``x`` holds the solve's values of the LP's x (assignment) columns,
    aligned with ``artifacts``; ``None`` unless the solve is optimal.
    :attr:`assignment` is built from them on its first read, so a
    caller that only needs the column values (a replan round) never
    builds the table.  A result may also be given its table directly.
    """

    def __init__(
        self,
        status: str,
        objective: Optional[float],
        assignment: Optional[AssignmentTable] = None,
        link_peaks: Optional[Dict[int, float]] = None,
        iterations: int = 0,
        x: Optional[np.ndarray] = None,
        artifacts: Optional["LpArtifacts"] = None,
    ) -> None:
        self.status = status
        self.objective = objective
        self._assignment = assignment
        self.link_peaks: Dict[int, float] = link_peaks if link_peaks is not None else {}
        #: Simplex iterations HiGHS spent on the solve.
        self.iterations = iterations
        self.x = x
        self.artifacts = artifacts

    def __repr__(self) -> str:
        return (
            f"JointLpResult(status={self.status!r}, objective={self.objective!r}, "
            f"iterations={self.iterations})"
        )

    @property
    def assignment(self) -> AssignmentTable:
        """(t, config, dc, option) → calls for every column above
        :data:`ASSIGNMENT_EPS`, in column order."""
        if self._assignment is None:
            table: AssignmentTable = {}
            if self.x is not None:
                artifacts = self.artifacts
                for j in np.flatnonzero(self.x > ASSIGNMENT_EPS):
                    table[artifacts.key_of(j)] = float(self.x[j])
            self._assignment = table
        return self._assignment

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def sum_of_peaks(self) -> float:
        return sum(self.link_peaks.values())


class PlanningError(RuntimeError):
    """A planning LP that did not solve to optimality.

    ``status`` is the solver's status word (``"infeasible"``,
    ``"unbounded"`` or ``"error"``), also kept in the message.  ``day``
    and ``slot`` name the planning day and timeslot that failed; either
    is ``None`` when the LP is not confined to one (a day's plan spans
    every slot, and a policy's LP does not know its day).
    """

    def __init__(
        self,
        message: str,
        status: str,
        day: Optional[int] = None,
        slot: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.day = day
        self.slot = slot

    def __reduce__(self):
        # Raised inside pool workers too; keep the fields across pickle.
        return type(self), (self.args[0], self.status, self.day, self.slot)


@dataclass
class LpArtifacts:
    """Index structures tying a built LP back to the planning domain.

    Column ``j`` of the LP is
    ``(col_t[j], configs[col_cfg[j]], dc_codes[col_dc[j]], COLUMN_OPTIONS[col_opt[j]])``;
    ``c1_block.rhs`` / ``c4_block.rhs`` are the arrays a multi-day plan
    cache mutates between solves.  The C2 (compute) and C3 (Internet
    capacity) blocks are retained too, with per-row key arrays, so a
    stress campaign can refresh *capacity* right-hand sides in place —
    outages and cuts are RHS-only changes, exactly like demand.
    """

    configs: List[CallConfig]
    dc_codes: List[str]
    col_t: np.ndarray
    col_cfg: np.ndarray
    col_dc: np.ndarray
    col_opt: np.ndarray
    #: C1 row id per column (column's (t, config) demand group).
    col_group: np.ndarray
    #: (t, config) per C1 row, aligned with ``c1_block.rhs``.
    groups: List[Tuple[int, CallConfig]]
    #: First y (link-peak) variable handle; x handles are 0..n_cols-1.
    y_base: int
    n_links: int
    c1_block: Optional[ConstraintBlock] = None
    c4_block: Optional[ConstraintBlock] = None
    c2_block: Optional[ConstraintBlock] = None
    #: (slot, dc index) per C2 row, aligned with ``c2_block.rhs``.
    c2_slot: Optional[np.ndarray] = None
    c2_dc: Optional[np.ndarray] = None
    c3_block: Optional[ConstraintBlock] = None
    #: (slot, country index, dc index) per C3 row, aligned with
    #: ``c3_block.rhs``.
    c3_slot: Optional[np.ndarray] = None
    c3_country: Optional[np.ndarray] = None
    c3_dc: Optional[np.ndarray] = None

    @property
    def n_cols(self) -> int:
        return int(self.col_t.size)

    def key_of(self, j: int) -> Tuple[int, CallConfig, str, str]:
        """The (t, config, dc, option) tuple of column ``j``."""
        return (
            int(self.col_t[j]),
            self.configs[self.col_cfg[j]],
            self.dc_codes[self.col_dc[j]],
            COLUMN_OPTIONS[self.col_opt[j]],
        )


class JointAssignmentLp:
    """Builds and solves the Fig 13 LP for one planning horizon."""

    def __init__(
        self,
        scenario: Scenario,
        demand: Mapping[Tuple[int, CallConfig], float],
        options: Optional[JointLpOptions] = None,
    ) -> None:
        """``demand`` maps (timeslot, reduced config) to call counts."""
        self.scenario = scenario
        self.options = options if options is not None else JointLpOptions()
        self.demand = {k: v for k, v in demand.items() if v > 0}
        if not self.demand:
            raise ValueError("empty demand")
        self.slots = sorted({t for t, _ in self.demand})
        self.configs = sorted({c for _, c in self.demand}, key=str)

    # -- column generation --------------------------------------------------

    def _allowed_options(self, config: CallConfig, dc_code: str) -> List[str]:
        if not self.options.allow_internet:
            return [WAN]
        # Pairs with zero Internet capacity never get Internet columns.
        cap = min(
            self.scenario.internet_cap_gbps(country, dc_code) for country in config.countries
        )
        if cap * self.options.internet_capacity_factor <= 0:
            return [WAN]
        return [WAN, INTERNET]

    def _allowed_dcs(self, config: CallConfig) -> List[str]:
        if not self.options.single_dc_per_config:
            return self.scenario.dc_codes
        return [self._pinned_dc(config)]

    def _pinned_dc(self, config: CallConfig) -> str:
        """Capacity-aware country -> DC pinning (the §6.3 ILP idea).

        Countries are assigned greedily (largest compute need first) to
        their nearest DC with enough remaining peak capacity; a config
        follows its first country.  Without capacity awareness the
        latency-best DC would simply be infeasible.
        """
        if not hasattr(self, "_pinning"):
            scenario = self.scenario
            # Exact per-slot compute need per pinning group (the first
            # country of each config), then greedy first-fit by peak.
            per_slot: Dict[str, Dict[int, float]] = {}
            for (t, c), count in self.demand.items():
                country = c.countries[0]
                per_slot.setdefault(country, {})
                per_slot[country][t] = per_slot[country].get(t, 0.0) + count * c.compute_cores()
            peak_need = {country: max(slots.values()) for country, slots in per_slot.items()}
            remaining = dict(scenario.compute_caps)
            pinning: Dict[str, str] = {}
            for country in sorted(peak_need, key=lambda c: -peak_need[c]):
                ranked = sorted(
                    scenario.dc_codes,
                    key=lambda dc: scenario.one_way_ms(country, dc, WAN),
                )
                chosen = None
                for dc in ranked:
                    if remaining[dc] >= peak_need[country]:
                        chosen = dc
                        break
                if chosen is None:
                    chosen = max(remaining, key=remaining.get)
                remaining[chosen] -= peak_need[country]
                pinning[country] = chosen
            self._pinning = pinning
        return self._pinning[config.countries[0]]

    # -- array-first build ---------------------------------------------------

    def _per_option(self, coefficient) -> np.ndarray:
        """``coefficient(config, dc, option)`` over (config, DC, option)."""
        dc_codes = self.scenario.dc_codes
        return np.asarray(
            [
                [[coefficient(config, dc, option) for option in COLUMN_OPTIONS] for dc in dc_codes]
                for config in self.configs
            ],
            dtype=np.float64,
        )

    def _build(self) -> Tuple[LinearProgram, LpArtifacts]:
        """Array-first LP assembly: one pass to enumerate columns, then
        vectorized COO emission per constraint family."""
        scenario = self.scenario
        opts = self.options
        configs = self.configs
        dc_codes = scenario.dc_codes
        n_dc = len(dc_codes)
        dc_index = scenario.dc_index
        country_codes = scenario.country_codes
        n_pairs = len(country_codes) * n_dc
        sum_of_peaks = opts.objective == "sum_of_peaks"
        n_links = scenario.wan_link_count if sum_of_peaks else 0
        # Max-E2E latency and the per-country bandwidth of each config,
        # as scoring reads them.
        tables = scenario.eval_tables(configs)

        # Per-config column template: (dc index, option code) pairs, the
        # same for every timeslot (allowed DCs/options are t-invariant).
        tmpl_dc: List[np.ndarray] = []
        tmpl_opt: List[np.ndarray] = []
        for config in configs:
            dcs, opts_codes = [], []
            for dc in self._allowed_dcs(config):
                for option in self._allowed_options(config, dc):
                    dcs.append(dc_index[dc])
                    opts_codes.append(0 if option == WAN else 1)
            tmpl_dc.append(np.asarray(dcs, dtype=np.int64))
            tmpl_opt.append(np.asarray(opts_codes, dtype=np.int64))

        # Column enumeration: one entry per (t, config, dc, option).
        cfg_of = {config: ci for ci, config in enumerate(configs)}
        demand_items = sorted(self.demand.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        groups: List[Tuple[int, CallConfig]] = [key for key, _ in demand_items]
        counts = np.asarray([count for _, count in demand_items], dtype=np.float64)
        t_parts, cfg_parts, dc_parts, opt_parts, group_parts = [], [], [], [], []
        for g, ((t, config), _) in enumerate(demand_items):
            ci = cfg_of[config]
            width = tmpl_dc[ci].size
            dc_parts.append(tmpl_dc[ci])
            opt_parts.append(tmpl_opt[ci])
            t_parts.append(np.full(width, t, dtype=np.int64))
            cfg_parts.append(np.full(width, ci, dtype=np.int64))
            group_parts.append(np.full(width, g, dtype=np.int64))
        col_t = np.concatenate(t_parts)
        col_cfg = np.concatenate(cfg_parts)
        col_dc = np.concatenate(dc_parts)
        col_opt = np.concatenate(opt_parts)
        col_group = np.concatenate(group_parts)
        n_cols = col_t.size
        column = (col_cfg, col_dc, col_opt)

        lp = LinearProgram("titan-next")
        artifacts = LpArtifacts(
            configs=list(configs),
            dc_codes=list(dc_codes),
            col_t=col_t,
            col_cfg=col_cfg,
            col_dc=col_dc,
            col_opt=col_opt,
            col_group=col_group,
            groups=groups,
            y_base=n_cols,
            n_links=n_links,
        )
        cfg_strs = [str(config) for config in configs]
        lp.add_variables(
            n_cols,
            namer=lambda j: (
                f"x[{col_t[j]}][{cfg_strs[col_cfg[j]]}]"
                f"[{dc_codes[col_dc[j]]}][{COLUMN_OPTIONS[col_opt[j]]}]"
            ),
        )
        if sum_of_peaks:
            lp.add_variables(n_links, namer=lambda i: f"y[{i}]")

        x_cols = np.arange(n_cols, dtype=np.int64)

        # C1 — assign all calls of every (t, c).
        artifacts.c1_block = lp.add_constraint_block(
            col_group, x_cols, np.ones(n_cols), "==", counts, name="C1"
        )

        # C2 — per-DC compute capacity per slot.
        cores = np.asarray([config.compute_cores() for config in configs], dtype=np.float64)
        c2_key = col_t * n_dc + col_dc
        c2_uniq, c2_rows = np.unique(c2_key, return_inverse=True)
        caps = np.asarray([scenario.compute_caps[dc] for dc in dc_codes])
        if opts.single_dc_per_config:
            caps = caps * SINGLE_DC_CAP_RELAX
        artifacts.c2_block = lp.add_constraint_block(
            c2_rows, x_cols, cores[col_cfg], "<=", caps[c2_uniq % n_dc], name="C2"
        )
        artifacts.c2_slot = c2_uniq // n_dc
        artifacts.c2_dc = c2_uniq % n_dc

        # C3 — Internet capacity per (slot, country, DC): one entry per
        # Internet column and participant country.
        inet = np.nonzero(col_opt == 1)[0]
        if opts.allow_internet and inet.size:
            first = tables.part_ptr[col_cfg[inet]]
            deg = tables.part_ptr[col_cfg[inet] + 1] - first
            entry_cols = np.repeat(inet, deg)
            part = np.repeat(first, deg) + _csr_offsets(deg)
            pair = tables.part_country[part] * n_dc + col_dc[entry_cols]
            uniq, rows = np.unique(col_t[entry_cols] * n_pairs + pair, return_inverse=True)
            # One capacity lookup per pair that has Internet columns.
            pairs, row_pair = np.unique(uniq % n_pairs, return_inverse=True)
            pair_caps = np.asarray(
                [
                    scenario.internet_cap_gbps(country_codes[p // n_dc], dc_codes[p % n_dc])
                    for p in pairs
                ]
            )
            artifacts.c3_block = lp.add_constraint_block(
                rows,
                entry_cols,
                tables.part_bw[part],
                "<=",
                pair_caps[row_pair] * opts.internet_capacity_factor,
                name="C3",
            )
            artifacts.c3_slot = uniq // n_pairs
            artifacts.c3_country = (uniq % n_pairs) // n_dc
            artifacts.c3_dc = uniq % n_dc

        # C4 — average max-E2E latency bound (Titan-Next only).
        e2e = tables.e2e_ms[column]
        if sum_of_peaks:
            artifacts.c4_block = lp.add_constraint_block(
                np.zeros(n_cols, dtype=np.int64),
                x_cols,
                e2e,
                "<=",
                np.asarray([opts.e2e_bound_ms * counts.sum()]),
                name="C4",
            )

        # C5 — link peaks dominate every slot's WAN load: one entry per
        # WAN column, participant country and link on its WAN route.
        if sum_of_peaks:
            wan = np.nonzero(col_opt == 0)[0]
            first = tables.part_ptr[col_cfg[wan]]
            deg = tables.part_ptr[col_cfg[wan] + 1] - first
            part_cols = np.repeat(wan, deg)
            part = np.repeat(first, deg) + _csr_offsets(deg)
            link_ptr, link_flat = scenario.link_incidence_csr()
            pair = tables.part_country[part] * n_dc + col_dc[part_cols]
            deg = link_ptr[pair + 1] - link_ptr[pair]
            entry_cols = np.repeat(part_cols, deg)
            entry_vals = np.repeat(tables.part_bw[part], deg)
            link = link_flat[np.repeat(link_ptr[pair], deg) + _csr_offsets(deg)]
            key = col_t[entry_cols] * max(n_links, 1) + link
            uniq, rows = np.unique(key, return_inverse=True)
            n_rows = uniq.size
            # Each (t, link) row also gets -1 * y[link].
            y_cols = artifacts.y_base + (uniq % max(n_links, 1))
            lp.add_constraint_block(
                np.concatenate([rows, np.arange(n_rows, dtype=np.int64)]),
                np.concatenate([entry_cols, y_cols]),
                np.concatenate([entry_vals, -np.ones(n_rows)]),
                "<=",
                np.zeros(n_rows),
                name="C5",
            )

        # Objective.
        c = np.zeros(lp.num_variables)
        if sum_of_peaks:
            c[artifacts.y_base :] = 1.0
            c[:n_cols] += LOCALITY_EPSILON * self._per_option(scenario.total_latency_ms)[column]
            c[:n_cols] += TIE_BREAK_EPSILON * self._per_option(_tie_break_unit)[column]
        elif opts.objective == "total_latency":
            c[:n_cols] = self._per_option(scenario.total_latency_ms)[column]
        else:  # total_e2e
            c[:n_cols] = e2e
        lp.set_objective_array(c)
        return lp, artifacts

    def build(self) -> Tuple[LinearProgram, Dict[Tuple[int, CallConfig, str, str], str]]:
        """Build the LP; returns it plus the X-variable name table.

        The name table exists for debugging and backward compatibility;
        the solve path works purely on integer handles (see
        :meth:`_build` / :class:`LpArtifacts`).
        """
        lp, artifacts = self._build()
        var_names = {
            artifacts.key_of(j): lp.variable_name(j) for j in range(artifacts.n_cols)
        }
        return lp, var_names

    # -- reference (scalar) build -------------------------------------------

    def build_reference(self) -> Tuple[LinearProgram, Dict[Tuple[int, CallConfig, str, str], str]]:
        """The original scalar LP assembly (per-term ``add_term`` calls).

        Kept as the ground truth the array-first :meth:`build` is
        validated against (same constraint counts, same optimum); also a
        readable rendition of the Fig 13 formulation.
        """
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

    # -- solve ---------------------------------------------------------------

    def solve(self) -> JointLpResult:
        lp, artifacts = self._build()
        return extract_result(lp.solve(), artifacts)


def extract_result(solution: Solution, artifacts: LpArtifacts) -> JointLpResult:
    """Index-based extraction of a solved plan (no name round-trips).

    Keeps the x column values; the assignment table is built on its
    first read (:attr:`JointLpResult.assignment`).
    """
    if not solution.is_optimal:
        return JointLpResult(
            status=solution.status,
            objective=None,
            assignment={},
            iterations=solution.iterations,
        )
    x = solution.x
    link_peaks = {
        link: float(x[artifacts.y_base + link]) for link in range(artifacts.n_links)
    }
    return JointLpResult(
        status="optimal",
        objective=solution.objective,
        link_peaks=link_peaks,
        iterations=solution.iterations,
        x=x[: artifacts.n_cols],
        artifacts=artifacts,
    )
