"""Stress & failure campaigns: event timelines replayed with replanning.

The paper's most operationally interesting material — §4.2's fiber cuts
and transit congestion, §6.3's 30-minute replanning, §6.4's surge
fall-back — describes how the system behaves when the world breaks.
This module turns those anecdotes into reproducible scenario campaigns:

* a :class:`StressTimeline` holds typed events over one day's slot grid
  — :class:`FiberCutEvent`, :class:`DcOutageEvent` (capacity events),
  :class:`FlashCrowdEvent`, :class:`HolidayEvent`,
  :class:`DemandShockEvent` (demand events);
* demand events become per-(config, slot) multipliers on the Poisson
  rates of :meth:`~repro.workload.demand.DemandModel.counts_matrix` /
  ``expected_matrix`` — same slot-addressed uniforms, scaled λ, so the
  stressed trace is deterministic and unstressed slots stay
  bit-identical to the unstressed day;
* capacity events become right-hand-side factors on the planning LP's
  C2 (compute) and C3 (Internet capacity) rows, passed to each solve of
  the setup's loaded :class:`~repro.core.titan_next.PlanCache` (Titan's
  reaction: degraded probes pull cleared capacity, §4.2(5)) and gone by
  the next; the shared :class:`~repro.core.capacity.InternetCapacityBook`
  is never written;
* :func:`run_campaign_day` replays the whole day through the batch
  ``process_table`` controller path with intraday replanning at the
  paper's cadence, degrading gracefully on infeasible rounds (the
  stale plan stays; the §6.4 surge path absorbs the overflow, counted
  by :func:`quota_overflow` and ``ControllerStats.unplanned_rate``),
  and scores the realized assignment with
  :func:`~repro.analysis.metrics.evaluate_batch`.

**Visibility model.** The planner learns about an event when it starts
(``start_slot``): a replanning round at slot *r* sees every event with
``start_slot <= r`` — including, from then on, its scheduled end — and
nothing of events still in the future.  The realized trace always uses
the full timeline (the world does not care what the planner knew).
Event slots are slot-of-day (0..slots_per_day-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..workload.configs import CallConfig
from .scenario import Scenario

if TYPE_CHECKING:
    from .titan_next import CapacityFactors


# ---------------------------------------------------------------------------
# Typed events
# ---------------------------------------------------------------------------


class StressEvent:
    """Base behaviour shared by every stress event.

    An event is active over ``[start_slot, end_slot)`` and contributes
    multiplicative factors: on demand rates per config, on per-pair
    Internet capacity, and on per-DC compute capacity.  The neutral
    factor is 1.0; subclasses override what they affect.
    """

    def active(self, slot: int) -> bool:
        return self.start_slot <= slot < self.end_slot

    def demand_factor(self, config: CallConfig) -> float:
        return 1.0

    def internet_factor(self, country_code: str, dc_code: str, scenario: Scenario) -> float:
        return 1.0

    def compute_factor(self, dc_code: str) -> float:
        return 1.0

    def _check_window(self) -> None:
        if self.end_slot <= self.start_slot:
            raise ValueError("stress event must have positive duration")


@dataclass(frozen=True)
class FiberCutEvent(StressEvent):
    """A mid-day WAN backbone fiber cut (§4.2(7)).

    ``node_a``/``node_b`` name the cut link's endpoints (the topology's
    ``pop:XX`` / ``dc:YY`` node names).  The WAN side of the cut is
    reported through :meth:`StressTimeline.event_schedule`; its effect
    on *planning* is the capacity-book side: the shared conduit also
    carries Internet transit for pairs routed over the link, and Titan's
    probing reacts to the degraded paths by pulling cleared capacity —
    so affected (country, DC) pairs keep only ``internet_factor_during``
    of their Internet capacity while the cut is active.
    """

    node_a: str
    node_b: str
    start_slot: int
    end_slot: int
    internet_factor_during: float = 0.0

    def __post_init__(self) -> None:
        self._check_window()
        if not 0.0 <= self.internet_factor_during <= 1.0:
            raise ValueError("internet_factor_during must be in [0, 1]")

    @property
    def link_key(self) -> FrozenSet[str]:
        return frozenset((self.node_a, self.node_b))

    def internet_factor(self, country_code: str, dc_code: str, scenario: Scenario) -> float:
        links = scenario._links.get((country_code, dc_code), ())
        if any(link.key == self.link_key for link in links):
            return self.internet_factor_during
        return 1.0


@dataclass(frozen=True)
class DcOutageEvent(StressEvent):
    """A full MP DC outage: no compute, no Internet ingress.

    Zeroes the DC's C2 compute rows and every C3 row into it for the
    outage window.  The LP must move the DC's share elsewhere — or go
    infeasible if the remaining fleet cannot hold the demand, in which
    case the stale plan stays and the surge path absorbs the overflow.
    """

    dc_code: str
    start_slot: int
    end_slot: int

    def __post_init__(self) -> None:
        self._check_window()

    def internet_factor(self, country_code: str, dc_code: str, scenario: Scenario) -> float:
        return 0.0 if dc_code == self.dc_code else 1.0

    def compute_factor(self, dc_code: str) -> float:
        return 0.0 if dc_code == self.dc_code else 1.0


@dataclass(frozen=True)
class FlashCrowdEvent(StressEvent):
    """A regional demand spike: every config involving ``country_code``
    multiplies its Poisson rate by ``multiplier`` for the window.

    The paper's planning stack assumes Poisson arrivals around a
    Holt-Winters trend; a 10× regional spike violates both, which is
    exactly what makes it a stress case: the planner only reacts at the
    next replanning round, and anything the stale plan cannot place
    rides the §6.4 surge path.
    """

    country_code: str
    start_slot: int
    end_slot: int
    multiplier: float = 10.0

    def __post_init__(self) -> None:
        self._check_window()
        if self.multiplier < 0:
            raise ValueError("multiplier must be non-negative")

    def demand_factor(self, config: CallConfig) -> float:
        return self.multiplier if self.country_code in config.countries else 1.0


@dataclass(frozen=True)
class HolidayEvent(StressEvent):
    """A holiday seasonality shift: a global rate multiplier < 1."""

    start_slot: int
    end_slot: int
    multiplier: float = 0.55

    def __post_init__(self) -> None:
        self._check_window()
        if self.multiplier < 0:
            raise ValueError("multiplier must be non-negative")

    def demand_factor(self, config: CallConfig) -> float:
        return self.multiplier


@dataclass(frozen=True)
class DemandShockEvent(StressEvent):
    """A correlated market-wide demand shock.

    Unlike the per-(config, slot) Poisson noise, the shock multiplies
    every config's rate by the same factor for the window — the
    correlated deviation the independent-arrivals model cannot produce.
    """

    start_slot: int
    end_slot: int
    multiplier: float = 1.8

    def __post_init__(self) -> None:
        self._check_window()
        if self.multiplier < 0:
            raise ValueError("multiplier must be non-negative")

    def demand_factor(self, config: CallConfig) -> float:
        return self.multiplier


def _overrides(event: StressEvent, factor: str) -> bool:
    """Whether ``event``'s class replaces the neutral ``factor`` method."""
    return getattr(type(event), factor) is not getattr(StressEvent, factor)


# ---------------------------------------------------------------------------
# The timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StressTimeline:
    """An ordered set of stress events over one day's slot grid."""

    events: Tuple[StressEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def visible(self, visible_from: Optional[int]) -> Tuple[StressEvent, ...]:
        """Events the planner knows about at a replanning round.

        ``None`` means ground truth (everything); otherwise events whose
        ``start_slot`` is at or before the round slot — detection at
        onset, schedule (including the end) known from then on.
        """
        if visible_from is None:
            return self.events
        return tuple(e for e in self.events if e.start_slot <= visible_from)

    def demand_multipliers(
        self,
        configs: Sequence[CallConfig],
        slots: int,
        visible_from: Optional[int] = None,
    ) -> np.ndarray:
        """Per-(config, slot-of-day) rate multipliers: ``(configs, slots)``.

        Feed directly to ``counts_matrix`` / ``expected_matrix`` /
        ``table_for_day`` as ``multipliers=``.  Rows follow ``configs``
        order; factors of overlapping events multiply.
        """
        multipliers = np.ones((len(configs), slots))
        for event in self.visible(visible_from):
            factors = np.asarray([event.demand_factor(c) for c in configs])
            if np.all(factors == 1.0):
                continue
            lo = max(event.start_slot, 0)
            hi = min(event.end_slot, slots)
            if lo < hi:
                multipliers[:, lo:hi] *= factors[:, None]
        return multipliers

    def capacity_factor_fns(
        self, scenario: Scenario, visible_from: Optional[int] = None
    ) -> CapacityFactors:
        """Per-row capacity factors for ``PlanCache.solve_day``'s ``capacity``.

        Returns ``(internet_factor(slot, country, dc),
        compute_factor(slot, dc))`` over the events visible at
        ``visible_from`` — each row's factor is the product of the
        events active in *that row's* slot, so a replan knows a visible
        cut's scheduled end and plans the post-repair slots at full
        capacity.  A family no visible event scales is ``None`` (the
        solve installs its baseline without a per-row call): demand
        events never scale capacity, and a factor of 1.0 is exact.
        """
        events = self.visible(visible_from)
        internet_events = [e for e in events if _overrides(e, "internet_factor")]
        compute_events = [e for e in events if _overrides(e, "compute_factor")]

        def internet_factor(slot: int, country_code: str, dc_code: str) -> float:
            factor = 1.0
            for event in internet_events:
                if event.active(slot):
                    factor *= event.internet_factor(country_code, dc_code, scenario)
            return factor

        def compute_factor(slot: int, dc_code: str) -> float:
            factor = 1.0
            for event in compute_events:
                if event.active(slot):
                    factor *= event.compute_factor(dc_code)
            return factor

        return (
            internet_factor if internet_events else None,
            compute_factor if compute_events else None,
        )

    def event_schedule(self, scenario: Scenario):
        """The WAN-side :class:`~repro.net.events.EventSchedule` view.

        Fiber-cut events are resolved against the scenario's link table;
        the schedule's vectorized ``capacity_matrix`` then reports the
        per-(link, slot) WAN capacity factors of the campaign.  Cuts
        naming links outside the scenario are skipped.
        """
        from ..net.events import EventSchedule, FiberCut

        links_by_key = {link.key: link for link in scenario.wan_links}
        cuts = []
        for event in self.events:
            if not isinstance(event, FiberCutEvent):
                continue
            link = links_by_key.get(event.link_key)
            if link is not None:
                cuts.append(FiberCut(link, event.start_slot, event.end_slot))
        return EventSchedule(scenario.topology, fiber_cuts=cuts)


# ---------------------------------------------------------------------------
# The campaign runner
# ---------------------------------------------------------------------------


@dataclass
class StressCampaignResult:
    """Outcome of one campaign day.

    ``replan_events`` is the per-round record (one
    :class:`~repro.core.replanner.ReplanEvent` per cadence slot).  Two
    metrics account for the §6.4 surge path:

    * ``stats.unplanned_rate`` (``surge_rate``) counts *hard* fallbacks
      — calls for which no plan entry for the country's guess configs
      had any quota left, routed to the nearest DC over the WAN;
    * ``overflow_calls`` / ``overflow_rate`` count quota *overdraft* —
      realized calls beyond the final plan's (slot, config) quota.  The
      controller keeps placing such calls at their guessed bucket (the
      wrong-guess consume is refunded, so guess buckets never drain),
      which makes the overdraft invisible in ``unplanned_rate`` even
      when a 12× flash crowd lands on a stale plan; this metric is the
      graceful-degradation signal for infeasible replan rounds.
    """

    day: int
    timeline: StressTimeline
    replan_events: List
    infeasible_rounds: int
    stats: object
    batch: object
    evaluation: Optional[object] = None
    overflow_calls: float = 0.0

    @property
    def surge_rate(self) -> float:
        return self.stats.unplanned_rate

    @property
    def overflow_rate(self) -> float:
        calls = self.stats.calls
        return self.overflow_calls / calls if calls else 0.0

    @property
    def replanned_rounds(self) -> int:
        return sum(1 for e in self.replan_events if e.solved)


def quota_overflow(plan, table, slots_per_day: int, reduce_configs: bool = True) -> float:
    """Realized calls beyond the plan's (slot, reduced config) quotas.

    For every (slot-of-day, planning config) the trace touches, the
    overdraft is ``max(0, realized - planned quota total)``; the sum is
    the number of calls the plan never budgeted for — the load the
    §6.4 surge machinery (guess placement or WAN fallback) absorbed.
    Reads only pristine plan totals, so it can run before or after the
    batch replay (the batch controller consumes a snapshot, not the
    plan itself).
    """
    # Widened: the table's columns are narrow, and the key below
    # multiplies the slot by the number of plan keys.
    slot_of_day = np.remainder(table.start_slot, slots_per_day, dtype=np.int64)
    # Realized counts aggregate over each *planning* config's raw
    # members (several raw configs reduce to one plan key), matching
    # the granularity the quota was budgeted at.
    plan_keys: List = []
    key_id: Dict = {}
    raw_to_key = np.empty(len(table.configs), dtype=np.int64)
    for i, config in enumerate(table.configs):
        key = config.reduced() if reduce_configs else config
        if key not in key_id:
            key_id[key] = len(plan_keys)
            plan_keys.append(key)
        raw_to_key[i] = key_id[key]
    flat = slot_of_day * len(plan_keys) + raw_to_key[table.config_idx]
    realized = np.bincount(flat, minlength=slots_per_day * len(plan_keys))
    overflow = 0.0
    for flat_key in np.nonzero(realized)[0]:
        slot = int(flat_key) // len(plan_keys)
        config = plan_keys[int(flat_key) % len(plan_keys)]
        entry = plan.entry(slot, config)
        planned = entry.total() if entry is not None else 0.0
        overflow += max(0.0, float(realized[flat_key]) - planned)
    return overflow


def run_campaign_day(
    setup,
    timeline: StressTimeline,
    day: int,
    cadence: int = 8,
    seed: int = 71,
    evaluate: bool = True,
) -> StressCampaignResult:
    """Replay one stressed day end to end through the batch engine.

    The loop is the paper's operation: every ``cadence`` slots the
    planner re-estimates demand (expected rates × the multipliers of
    events *visible* at the round) and re-solves for the remaining
    slots under the capacity factors of the visible events' schedules
    — keeping the stale plan when the round is infeasible.  Each
    round's estimate goes to the planner as the expected-count matrix
    itself; no round builds a demand table, an assignment table or a
    plan.  The realized (ground-truth) stressed trace then replays
    through ``TitanNextController.process_table`` against the final
    plan, built once from the rounds' spliced column values, which is
    faithful in time: replan rounds never rewrite past slots, so slot
    *t*'s quotas are exactly what the last round at or before *t*
    produced.  Scored with ``evaluate_batch``.

    Every round solves through the setup's one
    :class:`~repro.core.titan_next.PlanCache`, so the timelines of a
    campaign share one LP build; each solve installs its own capacity
    factors, so no timeline's events reach another's rounds.  The
    scenario's capacity book is only read (when the cache is built),
    never written.  Each round solves only its horizon, the slots from
    the round on (``solve_day(..., from_slot=)``), and scales only
    those slots' capacity rows.  A round that repeats
    a horizon and right-hand side the cache already solved — a round
    before the timeline's first event is visible, after its demand
    events end, or after its capacity events end (their factors then
    touch only the earlier slots' rows, which the horizon frees),
    repeats the unstressed timeline's — is served from the cache's memo
    instead of re-running HiGHS; the results are bit-identical either
    way.
    """
    from ..analysis.metrics import evaluate_batch
    from ..workload.traces import TraceGenerator
    from .controller import TitanNextController
    from .replanner import RollingPlanner
    from .titan_next import day_e2e_bound_ms

    if cadence < 1:
        raise ValueError("cadence must be >= 1 slot")
    scenario = setup.scenario
    slots = scenario.slots_per_day
    start_slot = day * slots
    raw_configs = [item.config for item in setup.universe.top(setup.top_n_configs)]

    # Ground truth: the stressed trace the world actually produces.
    truth_multipliers = timeline.demand_multipliers(raw_configs, slots)
    generator = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=seed)
    trace = generator.table_for_day(day, multipliers=truth_multipliers)

    planner = RollingPlanner(setup, e2e_bound_ms=day_e2e_bound_ms(day))
    for round_slot in range(0, slots, cadence):
        visible_multipliers = timeline.demand_multipliers(
            raw_configs, slots, visible_from=round_slot
        )
        estimate = setup.demand.expected_matrix(
            start_slot, slots, top_n=setup.top_n_configs, multipliers=visible_multipliers
        )
        planner.replan(
            estimate,
            from_slot=round_slot,
            capacity=timeline.capacity_factor_fns(scenario, visible_from=round_slot),
        )

    plan = planner.plan
    controller = TitanNextController(scenario, plan, seed=seed + 1, reduce_configs=True)
    batch = controller.process_table(trace)
    evaluation = (
        evaluate_batch(scenario, batch, "titan-next-stress") if evaluate else None
    )
    return StressCampaignResult(
        day=day,
        timeline=timeline,
        replan_events=list(planner.events),
        infeasible_rounds=planner.infeasible_rounds,
        stats=controller.stats,
        batch=batch,
        evaluation=evaluation,
        overflow_calls=quota_overflow(plan, trace, slots),
    )


# ---------------------------------------------------------------------------
# Campaign scenario factories (the pinned benchmark family)
# ---------------------------------------------------------------------------


def _cut_link_nodes(scenario: Scenario, country_code: str, dc_code: str) -> Tuple[str, str]:
    """Endpoints of the first WAN link on a pair's route (the cut target)."""
    links = scenario._links[(country_code, dc_code)]
    if not links:
        raise ValueError(f"pair ({country_code}, {dc_code}) has no WAN route to cut")
    return links[0].a, links[0].b


def campaign_scenarios(setup) -> Dict[str, StressTimeline]:
    """The pinned stress-campaign family, keyed by scenario name.

    Every timeline is built against the given setup's scenario (the
    fiber cut targets the GB corridor's first backbone link; the outage
    takes the last DC, which carries the smallest calibrated share).
    """
    scenario = setup.scenario
    node_a, node_b = _cut_link_nodes(scenario, "GB", scenario.dc_codes[0])
    outage_dc = scenario.dc_codes[-1]
    return {
        "fiber-cut": StressTimeline(
            (FiberCutEvent(node_a, node_b, start_slot=16, end_slot=34),)
        ),
        "dc-outage": StressTimeline(
            (DcOutageEvent(outage_dc, start_slot=18, end_slot=30),)
        ),
        "flash-crowd": StressTimeline(
            (FlashCrowdEvent("FR", start_slot=20, end_slot=28, multiplier=2.5),)
        ),
        "flash-crowd-surge": StressTimeline(
            (FlashCrowdEvent("DE", start_slot=20, end_slot=28, multiplier=12.0),)
        ),
        "holiday": StressTimeline((HolidayEvent(start_slot=0, end_slot=48),)),
        "demand-shock": StressTimeline(
            (DemandShockEvent(start_slot=14, end_slot=38, multiplier=1.8),)
        ),
    }
