"""Rolling re-planning at the paper's 30-minute cadence (§6.3).

"We run the LP every 30 min (with fresh estimates) that calculates the
assignments for the next 24 hours ... by running every 30 min, it
adapts the assignments to fresh information about the fraction of
traffic on Internet calculated by Titan."

:class:`RollingPlanner` simulates that loop: at every slot it re-solves
the Fig 13 LP for the remaining horizon using the *current* capacity
book (which Titan may have changed — e.g. an emergency brake zeroing a
pair mid-day) and splices the fresh plan into the controller's quota
table for future slots only.  Past slots are never rewritten: calls
already assigned stay assigned.

Two solve paths share the splice-and-record loop:

* the **fresh-LP path** (default) builds a new
  :class:`~repro.core.lp.JointAssignmentLp` per round off the live
  capacity book — correct for arbitrary mid-day book mutations, but it
  pays full model assembly every 30 minutes;
* the **cached path** (``configs=`` given) keeps one
  :class:`~repro.core.titan_next.PlanCache` across rounds, its model
  loaded in a persistent HiGHS session: each replan is a C1/C4 RHS
  refresh + a solve from the slack basis, and capacity changes reach
  the solver through :meth:`PlanCache.refresh_capacity_rhs` (outages
  and cuts are RHS-only edits too).  This is what makes intraday
  replanning affordable inside a stress campaign sweeping many days.

An infeasible round is not an error on either path: the previous plan
is kept for the remaining slots and the §6.4 surge path absorbs the
calls the stale plan cannot place (visible as
``ControllerStats.unplanned_rate`` after replay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..workload.configs import CallConfig
from .capacity import InternetCapacityBook
from .lp import JointAssignmentLp, JointLpOptions
from .plan import OfflinePlan
from .scenario import Scenario

DemandTable = Mapping[Tuple[int, CallConfig], float]


@dataclass
class ReplanEvent:
    """Record of one re-planning round."""

    slot: int
    solved: bool
    sum_of_peaks: Optional[float]
    columns: int


class RollingPlanner:
    """Re-solves the joint LP every ``cadence`` slots over a day."""

    def __init__(
        self,
        scenario: Scenario,
        options: Optional[JointLpOptions] = None,
        cadence: int = 1,
        slots_per_day: int = 48,
        configs: Optional[Sequence[CallConfig]] = None,
    ) -> None:
        if cadence < 1:
            raise ValueError("cadence must be >= 1 slot")
        self.scenario = scenario
        self.options = options if options is not None else JointLpOptions()
        self.cadence = cadence
        self.slots_per_day = slots_per_day
        self.plan = OfflinePlan()
        self.events: List[ReplanEvent] = []
        self.plan_cache = None
        if configs is not None:
            from .titan_next import PlanCache

            # One loaded LP structure for every round of the day: a
            # replan pins past slots' C1 rows to zero demand and
            # re-solves.  Demand keys outside the given config set are
            # a structural error (KeyError), same as PlanCache's
            # multi-day contract.
            self.plan_cache = PlanCache(
                scenario,
                sorted(set(configs), key=str),
                slots=range(slots_per_day),
                options=self.options,
            )

    def _remaining_demand(
        self, demand: DemandTable, from_slot: int
    ) -> Dict[Tuple[int, CallConfig], float]:
        return {(t, c): v for (t, c), v in demand.items() if t >= from_slot and v > 0}

    def replan(self, demand: DemandTable, from_slot: int) -> bool:
        """Re-solve for slots ≥ ``from_slot`` and splice into the plan.

        Returns False (and keeps the previous plan for those slots) if
        the LP is infeasible under the fresh capacities — the §6.4 surge
        path then handles calls the stale plan cannot place.
        """
        remaining = self._remaining_demand(demand, from_slot)
        if not remaining:
            self.events.append(ReplanEvent(from_slot, True, 0.0, 0))
            return True
        if self.plan_cache is not None:
            result = self.plan_cache.solve_day(remaining)
        else:
            result = JointAssignmentLp(self.scenario, remaining, self.options).solve()
        if not result.is_optimal:
            self.events.append(ReplanEvent(from_slot, False, None, 0))
            return False
        self.plan.splice(from_slot, result.assignment)
        self.events.append(
            ReplanEvent(from_slot, True, result.sum_of_peaks(), len(result.assignment))
        )
        return True

    def run_day(
        self,
        demand_provider: Callable[[int], DemandTable],
        capacity_update: Optional[Callable[[int, InternetCapacityBook], None]] = None,
    ) -> OfflinePlan:
        """Simulate a day of 30-minute re-planning rounds.

        ``demand_provider(slot)`` returns the freshest demand forecast
        for the whole day at that slot (the paper refreshes estimates
        each round); ``capacity_update(slot, book)`` lets the caller
        mutate the capacity book mid-day, as Titan would.  On the
        cached path the book feeds only fresh-LP rebuilds — push
        capacity changes to :attr:`plan_cache` via
        ``refresh_capacity_rhs`` (the stress campaign runner does).
        """
        for slot in range(0, self.slots_per_day, self.cadence):
            if capacity_update is not None:
                capacity_update(slot, self.scenario.capacity_book)
            self.replan(demand_provider(slot), from_slot=slot)
        return self.plan

    @property
    def infeasible_rounds(self) -> int:
        return sum(1 for event in self.events if not event.solved)
