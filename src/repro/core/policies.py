"""Assignment policies: WRR, Locality-First, Titan, Titan-Next (§7.2).

All policies consume the same oracle demand table — ``{(timeslot,
reduced config): call count}`` — and emit the same
:data:`~repro.core.lp.AssignmentTable`, so a single evaluator
(:mod:`repro.analysis.metrics`) scores them all identically:

* **WRR** — weighted round robin: buckets per (DC, routing option);
  a DC's weight is its compute share, split between Internet and WAN by
  the config's Internet fraction (minimum across its countries);
* **LF** — locality first: an LP minimizing total latency, per slot;
* **Titan** — weighted-random DC by compute share, then random routing
  per the per-pair fractions Titan measured;
* **Titan-Next** — the Fig 13 joint LP minimizing sum-of-peaks.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..net.latency import INTERNET, WAN
from ..workload.configs import CallConfig
from .lp import AssignmentTable, JointAssignmentLp, JointLpOptions, PlanningError
from .scenario import Scenario

DemandTable = Mapping[Tuple[int, CallConfig], float]


def _bucket_weights(scenario: Scenario, config: CallConfig) -> Dict[Tuple[str, str], float]:
    """(DC, option) bucket weights for WRR / Titan (§7.2 example).

    A DC's weight is its compute share (equal shares when the fleet has
    no compute, see :meth:`Scenario.compute_shares`).
    """
    weights: Dict[Tuple[str, str], float] = {}
    for dc, share in zip(scenario.dc_codes, scenario.compute_shares()):
        fraction = scenario.config_internet_fraction(config, dc)
        weights[(dc, INTERNET)] = share * fraction
        weights[(dc, WAN)] = share * (1.0 - fraction)
    return weights


class WrrPolicy:
    """Weighted Round Robin: deterministic proportional split."""

    name = "wrr"

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    def assign(self, demand: DemandTable) -> AssignmentTable:
        assignment: AssignmentTable = {}
        for (t, config), count in demand.items():
            if count <= 0:
                continue
            weights = _bucket_weights(self.scenario, config)
            total = sum(weights.values())
            for (dc, option), weight in weights.items():
                if weight <= 0:
                    continue
                assignment[(t, config, dc, option)] = count * weight / total
        return assignment


class TitanPolicy:
    """Titan's production policy: weighted-random DC, random routing.

    "Titan selects MP DC through weighted random policy where weights
    are set in proportion to the number of cores in MP DCs.  It then
    randomly selects calls ... based on the capacity calculated in §4."
    A fleet with no compute draws DCs with equal weights.
    """

    name = "titan"

    def __init__(self, scenario: Scenario, seed: int = 47) -> None:
        self.scenario = scenario
        self.seed = seed

    def assign(self, demand: DemandTable) -> AssignmentTable:
        rng = np.random.default_rng(self.seed)
        scenario = self.scenario
        dc_probs = np.array(scenario.compute_shares())
        assignment: AssignmentTable = {}
        for (t, config), count in sorted(demand.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            n = int(round(count))
            if n <= 0:
                continue
            dc_counts = rng.multinomial(n, dc_probs)
            for dc, dc_count in zip(scenario.dc_codes, dc_counts):
                if dc_count == 0:
                    continue
                fraction = scenario.config_internet_fraction(config, dc)
                internet_count = rng.binomial(dc_count, fraction)
                wan_count = dc_count - internet_count
                if internet_count:
                    key = (t, config, dc, INTERNET)
                    assignment[key] = assignment.get(key, 0.0) + internet_count
                if wan_count:
                    key = (t, config, dc, WAN)
                    assignment[key] = assignment.get(key, 0.0) + wan_count
        return assignment


class LocalityFirstPolicy:
    """LF: LP minimizing total latency (§7.2), solved per slot.

    The LP has no inter-slot coupling (the peak variables belong only
    to the sum-of-peaks objective), so solving slot by slot is exact
    and much faster than one monolithic solve.
    """

    name = "lf"

    def __init__(self, scenario: Scenario, objective: str = "total_latency") -> None:
        if objective not in ("total_latency", "total_e2e"):
            raise ValueError("LF objective must be total_latency or total_e2e")
        self.scenario = scenario
        self.objective = objective

    def assign(self, demand: DemandTable) -> AssignmentTable:
        slots = sorted({t for t, _ in demand})
        assignment: AssignmentTable = {}
        options = JointLpOptions(objective=self.objective)
        for t in slots:
            slot_demand = {(t, c): n for (tt, c), n in demand.items() if tt == t and n > 0}
            if not slot_demand:
                continue
            lp = JointAssignmentLp(self.scenario, slot_demand, options)
            result = lp.solve()
            if not result.is_optimal:
                raise PlanningError(
                    f"LF LP failed at slot {t}: {result.status}", status=result.status, slot=t
                )
            assignment.update(result.assignment)
        return assignment


class TitanNextPolicy:
    """Titan-Next: the Fig 13 joint LP over the whole horizon."""

    name = "titan-next"

    def __init__(self, scenario: Scenario, options: Optional[JointLpOptions] = None) -> None:
        self.scenario = scenario
        self.options = options if options is not None else JointLpOptions()

    def assign(self, demand: DemandTable) -> AssignmentTable:
        lp = JointAssignmentLp(self.scenario, demand, self.options)
        result = lp.solve()
        if not result.is_optimal:
            raise PlanningError(f"Titan-Next LP failed: {result.status}", status=result.status)
        return result.assignment
