"""Rolling re-planning at the paper's 30-minute cadence (§6.3).

"We run the LP every 30 min (with fresh estimates) that calculates the
assignments for the next 24 hours ... by running every 30 min, it
adapts the assignments to fresh information about the fraction of
traffic on Internet calculated by Titan."

:class:`RollingPlanner` is one round of that loop: it re-solves the
Fig 13 LP for the remaining horizon and splices the fresh plan into the
controller's quota table for future slots only.  Past slots are never
rewritten: calls already assigned stay assigned.  The caller owns the
cadence (:func:`~repro.core.stress.run_campaign_day` replans every
``cadence`` slots).

A round's numbers stay arrays from end to end.  Its input is the
estimate matrix itself (raw configs × slots, as
``DemandModel.expected_matrix`` returns it), which the cache folds
straight into the C1 counts.  Its output is the solve's x column
values: the planner keeps one vector over the LP's x columns and copies
each solved round's horizon into it, which is the splice.  The
:class:`~repro.core.plan.OfflinePlan` is built from that vector only
when :attr:`RollingPlanner.plan` is read.

Every round solves through the setup's one
:class:`~repro.core.titan_next.PlanCache`, whose model stays loaded in a
persistent HiGHS session.  A round at slot *s* solves only the horizon
it plans (``solve_day(..., from_slot=s)``): the session loads the LP's
columns for slots ≥ *s* plus the link-peak columns, with every row of
an earlier slot free, so a late round solves a small LP instead of the
whole day's.  Consecutive rounds differ in their first column, so each
reloads that column suffix into the same session (array views of the
cache's one matrix); a solve then runs from the slack basis.  Capacity
changes (Titan's fresh Internet fractions, an outage, a cut) reach the
solver as the round's ``capacity`` factors, RHS-only edits that last
that one round and scale only the rows of the horizon's slots; a
capacity event that has ended before the round touches only free rows.
So the timelines of a stress campaign share one structure, and intraday
replanning stays affordable inside a campaign sweeping many days.

An infeasible round is not an error: the previous plan is kept for the
remaining slots and the §6.4 surge path absorbs the calls the stale
plan cannot place (visible as ``ControllerStats.unplanned_rate`` after
replay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from .lp import JointLpOptions
from .plan import OfflinePlan

if TYPE_CHECKING:
    from .titan_next import CapacityFactors, EuropeSetup


@dataclass
class ReplanEvent:
    """Record of one re-planning round."""

    slot: int
    solved: bool
    sum_of_peaks: Optional[float]
    #: LP columns of the round's horizon, what a solve of it loads
    #: (whether HiGHS or the plan memo served it): the x columns of
    #: slots ≥ ``slot`` plus the link-peak columns; 0 when no demand was
    #: left to plan and nothing was solved.  Shrinks round by round.
    columns: int


class RollingPlanner:
    """Re-solves the joint LP for the rest of the day, one round at a time.

    Every round solves through the setup's
    :meth:`~repro.core.titan_next.EuropeSetup.plan_cache` (every slot of
    the scenario's day × the setup's reduced configs; an estimate of
    another shape raises ``ValueError``) under the C4 bound
    ``e2e_bound_ms`` (the day's §7.5 bound).  A round whose right-hand
    sides the cache already solved (another timeline's round before its
    event was visible, say) is served from the cache's memo without
    running HiGHS.

    The planner keeps one vector of x column values over the cache's
    LP: each solved round copies its horizon's columns over the
    previous rounds', and :attr:`plan` is built from that vector.
    """

    def __init__(
        self,
        setup: "EuropeSetup",
        e2e_bound_ms: float = JointLpOptions.e2e_bound_ms,
    ) -> None:
        self.e2e_bound_ms = e2e_bound_ms
        self.events: List[ReplanEvent] = []
        # One loaded LP structure for every round of the day: a replan
        # loads the columns of the slots it plans, frees every row of an
        # earlier slot, and re-solves.
        self.plan_cache = setup.plan_cache()
        self._x = np.zeros(self.plan_cache.x_columns)

    @property
    def plan(self) -> OfflinePlan:
        """The day's plan so far: slot *t* as the last solved round at
        or before *t* planned it.

        Built afresh from the planner's column values on every read, so
        read it once per replay.
        """
        return self.plan_cache.plan_of(self._x)

    def replan(
        self,
        estimate: np.ndarray,
        from_slot: int,
        capacity: Optional["CapacityFactors"] = None,
    ) -> bool:
        """Re-solve for slots ≥ ``from_slot`` and splice into the plan.

        ``estimate`` is the day's ``(raw configs, slots)`` call estimate
        in the setup's ``universe.top(top_n_configs)`` row order (what
        ``DemandModel.expected_matrix`` returns); its columns before
        ``from_slot`` are ignored, and a round with no positive entry
        left has nothing to plan.  A negative ``from_slot`` raises
        ``ValueError``.  ``capacity`` is the round's ``(internet_factor,
        compute_factor)`` pair on the build-time capacities (see
        :meth:`~repro.core.titan_next.PlanCache.solve_day`); ``None``
        plans at full capacity.  Returns False (and keeps the previous
        plan for those slots) if the LP is infeasible under those
        capacities — the §6.4 surge path then handles calls the stale
        plan cannot place.
        """
        if from_slot < 0:
            raise ValueError(f"from_slot must be >= 0, got {from_slot}")
        remaining = np.array(estimate)
        remaining[:, :from_slot] = 0
        if not (remaining > 0).any():
            self.events.append(ReplanEvent(from_slot, True, 0.0, 0))
            return True
        result = self.plan_cache.solve_day(
            remaining, e2e_bound_ms=self.e2e_bound_ms, capacity=capacity, from_slot=from_slot
        )
        columns = self.plan_cache.horizon_columns(from_slot)
        if not result.is_optimal:
            self.events.append(ReplanEvent(from_slot, False, None, columns))
            return False
        first = self.plan_cache.first_column(from_slot)
        self._x[first:] = result.x[first:]
        self.events.append(ReplanEvent(from_slot, True, result.sum_of_peaks(), columns))
        return True

    @property
    def infeasible_rounds(self) -> int:
        return sum(1 for event in self.events if not event.solved)
