"""Call configurations and reduced call configurations (§5, §6.2).

A *call config* captures the resource requirements of a call: the
countries of its participants, the participant count per country, and
the dominant media type.  All calls with the same config are fungible.

A *reduced call config* factors scale out of distribution: participant
counts are divided by their GCD so that, e.g., ``(DE-2, audio)`` and
``(DE-3, audio)`` both reduce to ``(DE-1, audio)`` and are planned as a
single group by the LP — the mechanism Titan-Next uses to cut call
migrations by 38–66% (Table 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Dict, Iterable, Mapping, Tuple

from .media import dominant_media, media_rank, participant_bandwidth_gbps, participant_compute_cores


@dataclass(frozen=True, order=True)
class CallConfig:
    """An immutable call configuration.

    ``participants`` is a tuple of ``(country_code, count)`` pairs sorted
    by country code — e.g. ``(("FR", 2), ("GB", 1))`` — and ``media`` is
    the dominant media type of the call.
    """

    participants: Tuple[Tuple[str, int], ...]
    media: str

    def __post_init__(self) -> None:
        if not self.participants:
            raise ValueError("call config needs at least one country")
        if list(self.participants) != sorted(self.participants):
            raise ValueError("participants must be sorted by country code")
        seen = set()
        for country, count in self.participants:
            if count < 1:
                raise ValueError(f"participant count must be >= 1, got {count}")
            if country in seen:
                raise ValueError(f"duplicate country in config: {country}")
            seen.add(country)
        media_rank(self.media)  # validates

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], media: str) -> "CallConfig":
        """Build a config from a ``{country: count}`` mapping."""
        participants = tuple(sorted((c, n) for c, n in counts.items()))
        return cls(participants, media)

    @classmethod
    def from_participants(
        cls, countries: Iterable[str], media_types: Iterable[str]
    ) -> "CallConfig":
        """Build a config from raw participant data.

        ``countries`` lists one entry per participant; the config's media
        label is the dominant type across ``media_types``.
        """
        counts: Dict[str, int] = {}
        for country in countries:
            counts[country] = counts.get(country, 0) + 1
        if not counts:
            raise ValueError("at least one participant required")
        return cls.from_counts(counts, dominant_media(media_types))

    # -- properties -------------------------------------------------------

    @property
    def countries(self) -> Tuple[str, ...]:
        return tuple(country for country, _ in self.participants)

    @property
    def total_participants(self) -> int:
        return sum(count for _, count in self.participants)

    @property
    def is_intra_country(self) -> bool:
        return len(self.participants) == 1

    def count_for(self, country_code: str) -> int:
        for country, count in self.participants:
            if country == country_code:
                return count
        return 0

    # -- resource accounting ----------------------------------------------

    def compute_cores(self) -> float:
        """MP compute needed by one call of this config (LP computeUsed)."""
        return participant_compute_cores(self.media, self.total_participants)

    def bandwidth_gbps(self) -> float:
        """Total participant bandwidth of one call (LP networkUsed)."""
        return participant_bandwidth_gbps(self.media, self.total_participants)

    def country_bandwidth_gbps(self, country_code: str) -> float:
        """Bandwidth contributed by this config's participants in one country."""
        return participant_bandwidth_gbps(self.media, self.count_for(country_code))

    # -- reduction (§6.2) --------------------------------------------------

    def reduction_factor(self) -> int:
        """GCD of the per-country counts (1 for already-reduced configs)."""
        return reduce(math.gcd, (count for _, count in self.participants))

    def reduced(self) -> "CallConfig":
        """The reduced call config: counts divided by their GCD.

        For intra-country calls this always yields a single participant
        (``(DE-2, audio)`` → ``(DE-1, audio)``), which is what groups
        differently-sized domestic calls together.
        """
        gcd = self.reduction_factor()
        participants = tuple((country, count // gcd) for country, count in self.participants)
        return CallConfig(participants, self.media)

    def __str__(self) -> str:
        inner = ", ".join(f"{country}-{count}" for country, count in self.participants)
        return f"(({inner}), {self.media})"
