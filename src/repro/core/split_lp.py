"""Per-participant split routing — the paper's future work, prototyped.

§6.3: "we don't split traffic from same participant across WAN and
Internet links ... Lastly, the LP assigns single routing option (either
WAN or Internet) for all participants of the same call.  Without this
condition, LP size increased substantially and could not finish in
timely manner.  We leave such traffic splitting for future work."

This module prototypes that future work with a formulation that stays
linear and compact: instead of enumerating per-call routing patterns,
it keeps one placement variable per (slot, config, DC) and one *routing
split* variable per (slot, config, DC, participant country):

    X[t,c,m]          calls of reduced config c at DC m in slot t
    Z[t,c,m,k] ≤ X    calls whose country-k participants ride the Internet

Internet capacity, WAN link loads, and the latency bound all become
linear in (X, Z).  The latency constraint necessarily weakens from
max-E2E to the *average participant round-trip* (max-E2E of a
mixed-routing call is not linear in the split), which we document as
part of the prototype's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..net.latency import INTERNET, WAN
from ..solver.model import LinearProgram, LinExpr
from ..workload.configs import CallConfig
from .lp import LOCALITY_EPSILON
from .scenario import Scenario

SplitKey = Tuple[int, CallConfig, str]


@dataclass(frozen=True)
class SplitLpOptions:
    """Knobs for the split-routing prototype."""

    #: Bound on the demand-weighted average participant RTT (ms).
    avg_rtt_bound_ms: float = 80.0

    def __post_init__(self) -> None:
        if self.avg_rtt_bound_ms <= 0:
            raise ValueError("avg_rtt_bound_ms must be positive")


@dataclass
class SplitLpResult:
    """Solved split-routing plan."""

    status: str
    objective: Optional[float]
    #: (t, config, dc) -> calls placed.
    placement: Dict[SplitKey, float] = field(default_factory=dict)
    #: (t, config, dc, country) -> calls whose country-side rides Internet.
    internet_split: Dict[Tuple[int, CallConfig, str, str], float] = field(default_factory=dict)
    link_peaks: Dict[int, float] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def sum_of_peaks(self) -> float:
        return sum(self.link_peaks.values())

    def internet_share_of(self, t: int, config: CallConfig, dc: str, country: str) -> float:
        """Fraction of the country-side participants on the Internet."""
        placed = self.placement.get((t, config, dc), 0.0)
        if placed <= 0:
            return 0.0
        split = self.internet_split.get((t, config, dc, country), 0.0)
        return min(1.0, split / placed)


class SplitRoutingLp:
    """Joint placement + per-country routing split (future-work LP)."""

    def __init__(
        self,
        scenario: Scenario,
        demand: Mapping[Tuple[int, CallConfig], float],
        options: Optional[SplitLpOptions] = None,
    ) -> None:
        self.scenario = scenario
        self.options = options if options is not None else SplitLpOptions()
        self.demand = {k: v for k, v in demand.items() if v > 0}
        if not self.demand:
            raise ValueError("empty demand")
        self.slots = sorted({t for t, _ in self.demand})

    def build(self) -> Tuple[LinearProgram, Dict, Dict]:
        scenario = self.scenario
        lp = LinearProgram("titan-next-split")

        x_vars: Dict[SplitKey, object] = {}
        z_vars: Dict[Tuple[int, CallConfig, str, str], object] = {}
        for (t, config), count in sorted(
            self.demand.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            for dc in scenario.dc_codes:
                x = lp.add_variable(f"x[{t}][{config}][{dc}]")
                x_vars[(t, config, dc)] = x
                for country, _ in config.participants:
                    if scenario.internet_cap_gbps(country, dc) <= 0:
                        continue
                    z = lp.add_variable(f"z[{t}][{config}][{dc}][{country}]")
                    z_vars[(t, config, dc, country)] = z
                    # Split bounded by placement: Z <= X.
                    expr = LinExpr()
                    expr.add_term(z).add_term(x, -1.0)
                    lp.add_constraint(expr <= 0, name=f"ZleX[{t}][{config}][{dc}][{country}]")

        y_vars = {idx: lp.add_variable(f"y[{idx}]") for idx in range(scenario.wan_link_count)}
        self._y_vars = y_vars

        # C1 — place every call.
        for (t, config), count in self.demand.items():
            expr = LinExpr()
            for dc in scenario.dc_codes:
                expr.add_term(x_vars[(t, config, dc)])
            lp.add_constraint(expr == count, name=f"C1[{t}][{config}]")

        # C2 — compute caps.
        for t in self.slots:
            for dc in scenario.dc_codes:
                expr = LinExpr()
                nonzero = False
                for (tt, config), _ in self.demand.items():
                    if tt != t:
                        continue
                    expr.add_term(x_vars[(t, config, dc)], config.compute_cores())
                    nonzero = True
                if nonzero:
                    lp.add_constraint(expr <= scenario.compute_caps[dc], name=f"C2[{t}][{dc}]")

        # C3 — Internet capacity per (country, DC, slot), over splits.
        for t in self.slots:
            for country in scenario.country_codes:
                for dc in scenario.dc_codes:
                    cap = scenario.internet_cap_gbps(country, dc)
                    expr = LinExpr()
                    nonzero = False
                    for (tt, config), _ in self.demand.items():
                        if tt != t:
                            continue
                        key = (t, config, dc, country)
                        if key in z_vars:
                            expr.add_term(z_vars[key], config.country_bandwidth_gbps(country))
                            nonzero = True
                    if nonzero:
                        lp.add_constraint(expr <= cap, name=f"C3[{t}][{country}][{dc}]")

        # C4' — average participant RTT bound (linear in X, Z).
        total_participants = sum(
            count * config.total_participants for (t, config), count in self.demand.items()
        )
        expr = LinExpr()
        for (t, config, dc), x in x_vars.items():
            wan_rtt = sum(
                2.0 * scenario.one_way_ms(country, dc, WAN) * n
                for country, n in config.participants
            )
            expr.add_term(x, wan_rtt)
        for (t, config, dc, country), z in z_vars.items():
            n = config.count_for(country)
            delta = 2.0 * n * (
                scenario.one_way_ms(country, dc, INTERNET) - scenario.one_way_ms(country, dc, WAN)
            )
            expr.add_term(z, delta)
        lp.add_constraint(
            expr <= self.options.avg_rtt_bound_ms * total_participants, name="C4-avg-rtt"
        )

        # C5 — link peaks over the WAN-routed remainder (X - Z).
        for t in self.slots:
            loads: Dict[int, LinExpr] = {}
            for (tt, config), _ in self.demand.items():
                if tt != t:
                    continue
                for dc in scenario.dc_codes:
                    x = x_vars[(t, config, dc)]
                    for country, _ in config.participants:
                        bw = config.country_bandwidth_gbps(country)
                        if bw <= 0:
                            continue
                        for link_idx in scenario.link_indices(country, dc):
                            load = loads.setdefault(link_idx, LinExpr())
                            load.add_term(x, bw)
                            key = (t, config, dc, country)
                            if key in z_vars:
                                load.add_term(z_vars[key], -bw)
            for link_idx, load in loads.items():
                load.add_term(y_vars[link_idx], -1.0)
                lp.add_constraint(load <= 0, name=f"C5[{t}][{link_idx}]")

        objective = LinExpr()
        for y in y_vars.values():
            objective.add_term(y)
        for (t, config, dc), x in x_vars.items():
            objective.add_term(x, LOCALITY_EPSILON * scenario.total_latency_ms(config, dc, WAN))
        lp.set_objective(objective)
        return lp, x_vars, z_vars

    def solve(self) -> SplitLpResult:
        lp, x_vars, z_vars = self.build()
        solution = lp.solve()
        if not solution.is_optimal:
            return SplitLpResult(status=solution.status, objective=None)
        # Extract by integer handle — variable names stay debug-only.
        x = solution.x
        placement = {
            key: float(x[var.index])
            for key, var in x_vars.items()
            if x[var.index] > 1e-9
        }
        splits = {
            key: float(x[var.index])
            for key, var in z_vars.items()
            if x[var.index] > 1e-9
        }
        peaks = {
            idx: float(x[var.index])
            for idx, var in self._y_vars.items()
        }
        return SplitLpResult(
            status="optimal",
            objective=solution.objective,
            placement=placement,
            internet_split=splits,
            link_peaks=peaks,
        )
