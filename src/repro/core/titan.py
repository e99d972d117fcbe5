"""Titan: quality-gated, iterative movement of traffic to the Internet.

Titan (§4) moves a fraction of each (client country, MP DC) pair's
traffic from the WAN to the Internet, in small steps, watching quality
metrics after each step:

* increments of 1–3% at a time, monitored "for a few days" (§4.1(3));
* a hard stop at 20% even with no degradation — safety over optimality;
* *moderate* regressions (P50 loss ≥ 0.1%, latency inflation ≥ 10%)
  decrement the pair's fraction (§4.1(4a));
* *severe* regressions (P50 loss ≥ 1%) pull the emergency brake: all of
  the pair's traffic back on the WAN immediately (§4.1(4b));
* pairs that keep failing at tiny fractions are disabled outright —
  "we do not use the Internet at all" (§4.2(5)).

Each pair is a small state machine; :class:`Titan` drives all pairs from
synthetic path metrics and publishes the resulting fractions and Gbps
estimates into the :class:`~repro.core.capacity.InternetCapacityBook`
that Titan-Next's LP consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.world import World, stable_hash
from ..net.elasticity import ElasticityModel
from ..net.jitter import JitterModel
from ..net.latency import INTERNET, WAN, LatencyModel
from ..net.loss import SLOTS_PER_DAY, LossModel
from ..telemetry.mos import MosModel
from .capacity import InternetCapacityBook
from .ecs import Experiment, QualityGates, Scorecard

# Ramp states.
RAMPING = "ramping"      # increasing the Internet fraction step by step
HOLDING = "holding"      # at the cap (or waiting out a monitor window)
BACKOFF = "backoff"      # decremented after a moderate regression
EMERGENCY = "emergency"  # severe regression: everything back on WAN
DISABLED = "disabled"    # Internet not used for this pair at all

RAMP_STATES = (RAMPING, HOLDING, BACKOFF, EMERGENCY, DISABLED)


@dataclass(frozen=True)
class TitanParams:
    """Titan's operational knobs (§4.1)."""

    #: Per-step traffic increment bounds ("typically 1-3%").
    step_min: float = 0.01
    step_max: float = 0.03
    #: Hard cap on the Internet fraction ("we currently stop at 20%").
    fraction_cap: float = 0.20
    #: Evaluations a pair must stay healthy before the next increment
    #: ("we monitor the performance metrics for a few days").
    healthy_evals_per_step: int = 2
    #: Accumulated moderate regressions before disabling the pair
    #: (strikes decay by ``strike_decay`` per healthy window, so only
    #: persistently bad pairs — Germany, Austria — reach the threshold).
    moderate_strikes_to_disable: float = 4.0
    strike_decay: float = 0.4
    #: Users sampled per pair per evaluation window.
    users_per_eval: int = 200
    gates: QualityGates = field(default_factory=QualityGates)


#: Path-median entries :class:`SyntheticPathProber` keeps before it
#: starts over (one A|B window reads at most 2 options × 24 slots).
_PATH_MEDIAN_MEMO = 1024


class SyntheticPathProber:
    """Adapter that samples per-user path metrics from the net models.

    Treatment users ride the Internet (with elasticity inflation at the
    pair's current offload fraction); control users ride the WAN.
    """

    def __init__(
        self,
        latency: LatencyModel,
        loss: LossModel,
        jitter: Optional[JitterModel] = None,
        elasticity: Optional[ElasticityModel] = None,
        mos: Optional[MosModel] = None,
    ) -> None:
        self.latency = latency
        self.loss = loss
        self.jitter = jitter if jitter is not None else JitterModel(latency.world)
        self.elasticity = elasticity if elasticity is not None else ElasticityModel(latency.world)
        self.mos = mos if mos is not None else MosModel()
        self._medians: Dict[Tuple[str, str, str, int, int], Tuple[float, float, float]] = {}

    def user_metrics(
        self,
        country_code: str,
        dc_code: str,
        option: str,
        fraction: float,
        slot: int,
        rng: np.random.Generator,
    ) -> Tuple[float, float, float]:
        """(latency_ms, loss_pct, jitter_ms) for one user in one slot."""
        # The path medians are pure functions of their arguments and the
        # WAN topology, so every user of an A|B window shares its slot's.
        key = (country_code, dc_code, option, slot, self.latency.topology.version)
        medians = self._medians.get(key)
        if medians is None:
            if len(self._medians) >= _PATH_MEDIAN_MEMO:
                self._medians.clear()
            medians = self._medians[key] = (
                self.latency.hourly_median_rtt_ms(country_code, dc_code, option, slot // 2),
                self.loss.slot_loss_pct(country_code, dc_code, option, slot),
                self.jitter.slot_jitter_ms(country_code, dc_code, option, slot),
            )
        latency, loss, jitter = medians
        if option == INTERNET:
            latency += self.elasticity.rtt_inflation_ms(country_code, dc_code, fraction)
            loss += self.elasticity.loss_inflation_pct(country_code, dc_code, fraction)
        # Per-user dispersion around the path medians.
        latency *= float(np.exp(rng.normal(0.0, 0.08)))
        loss = max(0.0, loss * float(np.exp(rng.normal(0.0, 0.35))))
        return latency, loss, jitter

    def user_rating(
        self,
        latency_ms: float,
        loss_pct: float,
        rng: np.random.Generator,
    ) -> float:
        """A sampled MOS rating for one user's conditions (Fig 11 model).

        Titan collects MOS "at the end of a subset of calls"; the ramp
        experiments feed these into the scorecard's MOS gate.
        """
        # The participant's round trip approximates the max-E2E proxy
        # for the 1:1 calls that dominate the distribution.
        return self.mos.sample_rating(latency_ms, loss_pct, rng)


@dataclass
class PairRamp:
    """Ramp state for one (client country, MP DC) pair."""

    country_code: str
    dc_code: str
    fraction: float = 0.0
    state: str = RAMPING
    healthy_streak: int = 0
    moderate_strikes: float = 0.0
    #: Rolling P50 Internet latency for this pair (EWMA over healthy
    #: windows); the inflation gate compares against this.
    baseline_latency_ms: Optional[float] = None
    history: List[Tuple[float, str]] = field(default_factory=list)

    def snapshot(self) -> None:
        self.history.append((self.fraction, self.state))


class Titan:
    """The production offload controller, driving every managed pair."""

    def __init__(
        self,
        world: World,
        prober: SyntheticPathProber,
        pairs: Sequence[Tuple[str, str]],
        params: Optional[TitanParams] = None,
        pair_traffic_gbps: Optional[Callable[[str, str], float]] = None,
        capacity_book: Optional[InternetCapacityBook] = None,
        seed: int = 43,
    ) -> None:
        if not pairs:
            raise ValueError("Titan needs at least one (country, DC) pair")
        self.world = world
        self.prober = prober
        self.params = params if params is not None else TitanParams()
        self.capacity_book = capacity_book if capacity_book is not None else InternetCapacityBook()
        self.seed = seed
        self._pair_traffic_gbps = (
            pair_traffic_gbps if pair_traffic_gbps is not None else (lambda c, d: 1.0)
        )
        self.ramps: Dict[Tuple[str, str], PairRamp] = {}
        for country_code, dc_code in pairs:
            world.country(country_code)
            world.dc(dc_code)
            self.ramps[(country_code, dc_code)] = PairRamp(country_code, dc_code)
        self._eval_index = 0

    # -- evaluation -------------------------------------------------------

    def _step_size(self, ramp: PairRamp, rng: np.random.Generator) -> float:
        """A 1–3% increment, capped so the fraction never exceeds the cap."""
        step = float(rng.uniform(self.params.step_min, self.params.step_max))
        return min(step, self.params.fraction_cap - ramp.fraction)

    def _run_experiment(self, ramp: PairRamp, slot: int, rng: np.random.Generator) -> Scorecard:
        """One A|B window at the pair's current fraction.

        The latency baseline is the pair's rolling observed Internet P50
        (EWMA over past healthy windows) — the inflation gate fires on
        *congestion-induced* inflation (which grows with the offload
        fraction), not on the Internet simply being a slower path than
        the WAN for this pair.
        """
        experiment = Experiment(
            f"titan:{ramp.country_code}:{ramp.dc_code}",
            treatment_fraction=max(ramp.fraction, 0.01),
            gates=self.params.gates,
            latency_baseline_ms=ramp.baseline_latency_ms,
        )
        for i in range(self.params.users_per_eval):
            user_id = f"user-{i}"
            option = INTERNET if experiment.in_treatment(user_id) else WAN
            latency, loss, jitter = self.prober.user_metrics(
                ramp.country_code, ramp.dc_code, option, ramp.fraction, slot + (i % 24), rng
            )
            # MOS is heavily sampled in production; model that by only
            # rating every eighth user.
            mos = self.prober.user_rating(latency, loss, rng) if i % 8 == 0 else None
            experiment.observe(user_id, latency, loss, jitter_ms=jitter, mos=mos)
        card = experiment.scorecard()
        # At tiny treatment fractions a window can end with zero
        # treatment users; p50_latency() is then 0.0 and must not seed
        # (or drag down) the baseline — skip the update entirely.
        if card.treatment.count > 0:
            observed_p50 = card.treatment.p50_latency()
            if ramp.baseline_latency_ms is None:
                ramp.baseline_latency_ms = observed_p50
            elif card.healthy:
                ramp.baseline_latency_ms = 0.7 * ramp.baseline_latency_ms + 0.3 * observed_p50
        return card

    def _transition(self, ramp: PairRamp, card: Scorecard, rng: np.random.Generator) -> None:
        """Apply the §4.1(4) reaction rules to one pair."""
        params = self.params
        if ramp.state == DISABLED:
            return
        if card.severe_regression:
            # Emergency brake: reroute everything over the WAN, now.
            ramp.fraction = 0.0
            ramp.state = EMERGENCY
            ramp.healthy_streak = 0
            ramp.moderate_strikes += 2.0
            if ramp.moderate_strikes >= params.moderate_strikes_to_disable:
                ramp.state = DISABLED
            return
        if card.moderate_regression:
            step = float(rng.uniform(params.step_min, params.step_max))
            ramp.fraction = max(0.0, ramp.fraction - step)
            ramp.state = BACKOFF
            ramp.healthy_streak = 0
            ramp.moderate_strikes += 1.0
            if ramp.moderate_strikes >= params.moderate_strikes_to_disable:
                ramp.fraction = 0.0
                ramp.state = DISABLED
            return
        # Healthy window: strikes decay, streak builds toward the next step.
        ramp.moderate_strikes = max(0.0, ramp.moderate_strikes - params.strike_decay)
        ramp.healthy_streak += 1
        if ramp.fraction >= params.fraction_cap - 1e-9:
            # Safety over optimality: stop at the cap even when healthy.
            ramp.state = HOLDING
            return
        if ramp.healthy_streak >= params.healthy_evals_per_step:
            ramp.fraction = min(params.fraction_cap, ramp.fraction + self._step_size(ramp, rng))
            ramp.healthy_streak = 0
            ramp.state = RAMPING

    def evaluate_all(self, slot: Optional[int] = None) -> None:
        """Run one evaluation round (≈ a few days in production)."""
        if slot is None:
            slot = self._eval_index * SLOTS_PER_DAY
        for key in sorted(self.ramps):
            ramp = self.ramps[key]
            rng = np.random.default_rng(
                (
                    self.seed,
                    stable_hash(ramp.country_code),
                    stable_hash(ramp.dc_code),
                    self._eval_index,
                )
            )
            if ramp.state != DISABLED:
                card = self._run_experiment(ramp, slot, rng)
                self._transition(ramp, card, rng)
            ramp.snapshot()
            self._publish(ramp)
        self._eval_index += 1

    def run(self, evaluations: int) -> InternetCapacityBook:
        """Run several evaluation rounds and return the capacity book."""
        if evaluations < 0:
            raise ValueError("evaluations must be non-negative")
        for _ in range(evaluations):
            self.evaluate_all()
        return self.capacity_book

    # -- outputs -----------------------------------------------------------

    def _publish(self, ramp: PairRamp) -> None:
        book = self.capacity_book
        if ramp.state == DISABLED:
            book.disable(ramp.country_code, ramp.dc_code)
            return
        book.enable(ramp.country_code, ramp.dc_code)
        book.set_fraction(ramp.country_code, ramp.dc_code, ramp.fraction)
        traffic = self._pair_traffic_gbps(ramp.country_code, ramp.dc_code)
        book.set_gbps(ramp.country_code, ramp.dc_code, ramp.fraction * traffic)

    def fraction(self, country_code: str, dc_code: str) -> float:
        return self.ramps[(country_code, dc_code)].fraction

    def state(self, country_code: str, dc_code: str) -> str:
        return self.ramps[(country_code, dc_code)].state
