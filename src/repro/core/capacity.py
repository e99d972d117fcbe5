"""Internet path capacity book-keeping.

Titan's output — "Internet path capacities for each client country - MP
DC pair as recorded by Titan" (§6, inputs (c)) — is the interface
between the two systems: Titan probes how much traffic each pair can
safely carry; Titan-Next's LP consumes those capacities as the
``InternetCap`` constraint (C3).

Capacity is tracked two ways: as a *fraction* of the pair's traffic
(Titan's ramp operates in percent steps, §4.1(3)) and as an absolute
Gbps estimate derived from the pair's typical traffic volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple


@dataclass
class PairCapacity:
    """Capacity state for one (client country, MP DC) pair."""

    country_code: str
    dc_code: str
    #: Fraction of the pair's traffic cleared for the Internet (0..1).
    fraction: float = 0.0
    #: Absolute capacity estimate for the pair's Internet path, Gbps.
    gbps: float = 0.0
    #: Whether Titan has disabled the Internet for this pair (§4.2(5)).
    disabled: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.gbps < 0:
            raise ValueError("capacity must be non-negative")

    @property
    def effective_fraction(self) -> float:
        return 0.0 if self.disabled else self.fraction


class InternetCapacityBook:
    """The capacity table shared between Titan and Titan-Next."""

    def __init__(self) -> None:
        self._pairs: Dict[Tuple[str, str], PairCapacity] = {}

    def pair(self, country_code: str, dc_code: str) -> PairCapacity:
        key = (country_code, dc_code)
        if key not in self._pairs:
            self._pairs[key] = PairCapacity(country_code, dc_code)
        return self._pairs[key]

    def set_fraction(self, country_code: str, dc_code: str, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.pair(country_code, dc_code).fraction = fraction

    def set_gbps(self, country_code: str, dc_code: str, gbps: float) -> None:
        if gbps < 0:
            raise ValueError("capacity must be non-negative")
        self.pair(country_code, dc_code).gbps = gbps

    def disable(self, country_code: str, dc_code: str) -> None:
        """Stop using the Internet for a pair entirely (§4.2(5))."""
        self.pair(country_code, dc_code).disabled = True

    def enable(self, country_code: str, dc_code: str) -> None:
        self.pair(country_code, dc_code).disabled = False

    def fraction(self, country_code: str, dc_code: str) -> float:
        """The pair's usable Internet fraction; 0.0 for a pair never set.

        Reads never add a pair (only :meth:`pair` and the setters do), so
        asking about a pair leaves :meth:`snapshot` as it was.
        """
        pair = self._pairs.get((country_code, dc_code))
        return 0.0 if pair is None else pair.effective_fraction

    def gbps(self, country_code: str, dc_code: str) -> float:
        """The pair's usable Internet capacity; 0.0 for a pair never set."""
        pair = self._pairs.get((country_code, dc_code))
        return 0.0 if pair is None or pair.disabled else pair.gbps

    def pairs(self) -> Iterable[PairCapacity]:
        return list(self._pairs.values())

    def snapshot(self) -> Dict[Tuple[str, str], Tuple[float, float, bool]]:
        """The full (fraction, gbps, disabled) state, for later restore.

        A caller that mutates the book for an experiment takes a
        snapshot first and hands it to :meth:`restore` afterwards.
        Stress campaigns do not need this bracket: they apply capacity
        events to the planning LP's right-hand sides, never to the book.
        """
        return {
            key: (pair.fraction, pair.gbps, pair.disabled)
            for key, pair in self._pairs.items()
        }

    def restore(self, snapshot: Mapping[Tuple[str, str], Tuple[float, float, bool]]) -> None:
        """Reset the book to a :meth:`snapshot` (new pairs are dropped)."""
        self._pairs = {}
        for (country_code, dc_code), (fraction, gbps, disabled) in snapshot.items():
            pair = self.pair(country_code, dc_code)
            pair.fraction = fraction
            pair.gbps = gbps
            pair.disabled = disabled


def split_capacity_by_priority(
    total_gbps: float, priorities: Mapping[str, float]
) -> Dict[str, float]:
    """Split a DC's transit capacity across client countries (§4.1(3b)).

    "We assign different priorities to client countries (based on
    importance) and split available (minimum) capacity across client
    countries depending on their priorities."
    """
    if total_gbps < 0:
        raise ValueError("capacity must be non-negative")
    if not priorities:
        return {}
    weights = {c: p for c, p in priorities.items() if p > 0}
    total_weight = sum(weights.values())
    if total_weight <= 0:
        return {c: 0.0 for c in priorities}
    shares = {c: total_gbps * w / total_weight for c, w in weights.items()}
    for country in priorities:
        shares.setdefault(country, 0.0)
    return shares
