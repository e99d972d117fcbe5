"""Synthetic call demand: per-config arrival rates with seasonality.

Titan-Next forecasts per-config call counts at 30-minute granularity
(§6.1(2)) from 4 weeks of history, so the synthetic demand must carry
realistic structure: a diurnal double hump (morning / afternoon business
hours), a strong weekday/weekend effect, per-config popularity that is
heavy-tailed (the paper's top 3,000 configs cover 90+% of calls), and
day-to-day noise so that forecasting is non-trivial.

Counts are Poisson-sampled deterministically per (seed, config, slot),
so any window of the demand process can be regenerated independently.
The sampler is counter-based: each config owns one Philox stream keyed
on ``(seed, stable_hash(config))``, slot ``s`` owns a fixed block of
that stream, and counts are drawn by inverting the Poisson CDF on the
slot's uniform — so a whole ``(configs, slots)`` window is one batched
array computation (:meth:`DemandModel.counts_matrix`) and the scalar
APIs are thin views of the same stream.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import special

from ..geo.world import Country, stable_hash
from .configs import CallConfig
from .media import AUDIO, SCREENSHARE, VIDEO

#: 30-minute slots, as in the paper's LP and forecasting pipeline.
SLOTS_PER_DAY = 48
SLOTS_PER_WEEK = 7 * SLOTS_PER_DAY

#: Fraction of calls per media type (most Teams calls carry video).
MEDIA_MIX: Dict[str, float] = {AUDIO: 0.45, VIDEO: 0.42, SCREENSHARE: 0.13}

#: Fraction of calls that are intra-country ("majority", §6.3).
INTRA_COUNTRY_FRACTION = 0.85

#: Distribution of participant counts for intra-country calls.
INTRA_SIZE_WEIGHTS: Dict[int, float] = {
    1: 0.10, 2: 0.38, 3: 0.22, 4: 0.14, 5: 0.09, 6: 0.04, 8: 0.02, 10: 0.01,
}

#: Distribution of (countries, per-country size) for international calls.
INTER_SIZE_WEIGHTS: Dict[Tuple[int, ...], float] = {
    (1, 1): 0.55,
    (2, 1): 0.20,
    (1, 1, 1): 0.10,
    (2, 2): 0.08,
    (3, 1): 0.05,
    (2, 1, 1): 0.02,
}


#: Philox advances its counter in blocks of four 64-bit words; reserving
#: one block per slot makes slot ``s`` of a config's stream addressable
#: as ``advance(s)`` regardless of which window is being generated.
_WORDS_PER_SLOT = 4

#: Rates at or below this invert the Poisson CDF by walking the pmf
#: recurrence (vectorized, ~lam iterations); larger rates — where
#: ``exp(-lam)`` heads toward underflow and the walk gets long — invert
#: via the regularized incomplete gamma (``scipy.special.pdtrik``).
_SMALL_LAMBDA = 128.0


def _poisson_from_uniform(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Poisson inverse-CDF sampling: smallest ``k`` with ``u < CDF(k)``.

    Inverse-transform sampling from pre-drawn uniforms makes each count
    a pure function of ``(u, lam)``, which is what lets any demand
    window be regenerated independently of how it is batched.
    """
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    out = np.zeros(lam.shape, dtype=np.int64)
    small = lam <= _SMALL_LAMBDA
    if small.any():
        ls = lam[small]
        us = u[small]
        pmf = np.exp(-ls)
        cdf = pmf.copy()
        counts = np.zeros(ls.shape, dtype=np.int64)
        # Past lam + 12*sqrt(lam) the residual tail mass is below the
        # resolution of a 53-bit uniform; the cap also guards against
        # the accumulated CDF rounding to just under a u close to 1.
        peak = float(ls.max())
        k_max = int(math.ceil(peak + 12.0 * math.sqrt(peak) + 20.0))
        # Walk only the entries still unresolved, compacted whenever
        # half of them resolve.  Each entry keeps its own pmf/cdf
        # recurrence, so its count is what walking every entry to the
        # largest lam's end would give.  Until the first compaction the
        # walk runs on ``counts`` itself (``live`` is None), so a
        # one-entry call (``sample_count``) costs what the plain walk
        # did; afterwards ``live`` maps walked entries to ``counts``.
        unresolved = us >= cdf
        n_live = int(np.count_nonzero(unresolved))
        live = None
        live_counts = counts
        k = 0
        while k < k_max and n_live:
            if 2 * n_live <= unresolved.size:
                keep = np.flatnonzero(unresolved)
                if live is None:
                    live = keep
                else:
                    counts[live] = live_counts
                    live = live[keep]
                ls, us, pmf, cdf = ls[keep], us[keep], pmf[keep], cdf[keep]
                live_counts = live_counts[keep]
                unresolved = np.ones(keep.size, dtype=bool)
            k += 1
            live_counts += unresolved
            pmf *= ls / k
            cdf += pmf
            unresolved &= us >= cdf
            n_live = int(np.count_nonzero(unresolved))
        if live is not None:
            counts[live] = live_counts
        out[small] = counts
    large = ~small
    if large.any():
        ll = lam[large]
        ul = u[large]
        vals = np.ceil(special.pdtrik(ul, ll))
        vals1 = np.maximum(vals - 1.0, 0.0)
        out[large] = np.where(special.pdtr(vals1, ll) >= ul, vals1, vals).astype(np.int64)
    return out


@functools.lru_cache(maxsize=4096)
def _day_shock(seed: int, sigma: float, day: int) -> float:
    """:meth:`DemandModel.day_shock`, memoized: a pure function of its
    arguments, read once per (config, slot) by the scalar samplers."""
    rng = np.random.default_rng((seed, 0xD45, day))
    return float(np.exp(rng.normal(0.0, sigma)))


def diurnal_factor(slot_of_day: int) -> float:
    """Business-hours double hump, normalized to mean ~1 over the day."""
    hour = slot_of_day / 2.0
    morning = math.exp(-((hour - 10.0) ** 2) / (2 * 2.2**2))
    afternoon = math.exp(-((hour - 15.0) ** 2) / (2 * 2.6**2))
    base = 0.08 + 1.9 * (morning + 0.9 * afternoon)
    return base


def weekday_factor(day_of_week: int) -> float:
    """Weekday/weekend demand factor; day 0 is Monday."""
    if day_of_week < 0:
        raise ValueError("day_of_week must be non-negative")
    return (1.0, 1.05, 1.06, 1.04, 0.95, 0.30, 0.25)[day_of_week % 7]


@dataclass(frozen=True)
class ConfigDemand:
    """One call config plus its popularity weight in the universe."""

    config: CallConfig
    weight: float


class ConfigUniverse:
    """The population of call configs for a scenario (e.g. intra-Europe).

    Builds intra-country configs for every (country, size, media) combo
    and international configs for the most popular country pairs, with
    Zipf-ish weights derived from country call volumes.  The result is a
    deterministic ranked list; the paper's pipeline forecasts the top
    3,000 configs, our scaled scenario defaults to the top few hundred.
    """

    def __init__(
        self,
        countries: Sequence[Country],
        max_international_pairs: int = 40,
        seed: int = 29,
    ) -> None:
        if not countries:
            raise ValueError("need at least one country")
        self.countries = list(countries)
        self.seed = seed
        self._demands = self._build(max_international_pairs)
        # Cumulative weights, cached once: coverage() is an O(1) lookup
        # instead of an O(n) rescan of the whole ranked list per call.
        self._cum_weights = np.cumsum([d.weight for d in self._demands])

    def _build(self, max_pairs: int) -> List[ConfigDemand]:
        demands: List[ConfigDemand] = []
        total_weight = sum(c.call_volume_weight for c in self.countries)
        # Intra-country configs.
        for country in self.countries:
            share = country.call_volume_weight / total_weight
            for size, size_w in INTRA_SIZE_WEIGHTS.items():
                for media, media_w in MEDIA_MIX.items():
                    config = CallConfig(((country.code, size),), media)
                    weight = INTRA_COUNTRY_FRACTION * share * size_w * media_w
                    demands.append(ConfigDemand(config, weight))
        # International configs between the heaviest country pairs.
        ranked = sorted(self.countries, key=lambda c: -c.call_volume_weight)
        pairs = list(itertools.combinations(ranked, 2))[:max_pairs]
        pair_total = sum(a.call_volume_weight * b.call_volume_weight for a, b in pairs)
        for a, b in pairs:
            pair_share = a.call_volume_weight * b.call_volume_weight / pair_total
            for sizes, size_w in INTER_SIZE_WEIGHTS.items():
                for media, media_w in MEDIA_MIX.items():
                    involved = [a, b]
                    if len(sizes) > len(involved):
                        third = next(
                            (c for c in ranked if c not in involved), None
                        )
                        if third is None:
                            continue
                        involved.append(third)
                    counts = {c.code: s for c, s in zip(involved, sizes)}
                    config = CallConfig.from_counts(counts, media)
                    weight = (1 - INTRA_COUNTRY_FRACTION) * pair_share * size_w * media_w
                    demands.append(ConfigDemand(config, weight))
        demands.sort(key=lambda d: (-d.weight, d.config))
        return demands

    @property
    def demands(self) -> List[ConfigDemand]:
        return list(self._demands)

    @property
    def configs(self) -> List[CallConfig]:
        return [d.config for d in self._demands]

    def top(self, n: int) -> List[ConfigDemand]:
        """The n most popular configs (the paper forecasts the top 3,000)."""
        return self._demands[:n]

    def coverage(self, n: int) -> float:
        """Fraction of total call weight covered by the top n configs."""
        if n <= 0:
            return 0.0
        n = min(n, len(self._demands))
        return float(self._cum_weights[n - 1] / self._cum_weights[-1])


class DemandModel:
    """Per-(config, slot) Poisson arrival process with seasonality.

    ``expected_count`` is the deterministic rate (what an ideal
    forecaster could learn); ``sample_count`` adds Poisson noise plus a
    per-day demand shock shared across configs (news days, holidays),
    which is what makes Holt-Winters' job realistic.

    The batch APIs (:meth:`expected_matrix`, :meth:`counts_matrix`)
    produce whole ``(n_configs, n_slots)`` windows as single array
    computations; the scalar APIs delegate to the same uniform stream
    and inverse-CDF, so every consumer sees one consistent sample
    stream no matter how it slices the process.
    """

    def __init__(
        self,
        universe: ConfigUniverse,
        daily_calls: float = 40_000.0,
        day_shock_sigma: float = 0.06,
        seed: int = 31,
    ) -> None:
        if daily_calls <= 0:
            raise ValueError("daily_calls must be positive")
        self.universe = universe
        self.daily_calls = daily_calls
        self.day_shock_sigma = day_shock_sigma
        self.seed = seed
        total = sum(d.weight for d in universe.demands)
        self._rates = {d.config: d.weight / total for d in universe.demands}
        #: Per-config rate array aligned with ``universe.demands`` order.
        self._rate_arr = np.asarray([d.weight for d in universe.demands]) / total
        self._diurnal = np.asarray([diurnal_factor(s) for s in range(SLOTS_PER_DAY)])
        self._weekday = np.asarray([weekday_factor(d) for d in range(7)])
        # Normalize diurnal shape so rates integrate to daily_calls.
        self._diurnal_norm = float(self._diurnal.sum())
        self._philox_keys: Dict[CallConfig, np.ndarray] = {}

    # -- the per-config counter-based uniform stream -----------------------

    def _philox_key(self, config: CallConfig) -> np.ndarray:
        key = self._philox_keys.get(config)
        if key is None:
            key = np.array(
                [np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stable_hash(str(config)))],
                dtype=np.uint64,
            )
            self._philox_keys[config] = key
        return key

    def _config_uniforms(self, config: CallConfig, start_slot: int, slots: int) -> np.ndarray:
        """Slot-addressed uniforms of one config's Philox stream."""
        bit_generator = np.random.Philox(key=self._philox_key(config))
        if start_slot:
            bit_generator.advance(start_slot)
        draws = np.random.Generator(bit_generator).random(_WORDS_PER_SLOT * slots)
        return draws[::_WORDS_PER_SLOT]

    def _slot_shape(self, start_slot: int, slots: int) -> np.ndarray:
        """Diurnal × weekday factor per slot in the window."""
        s = np.arange(start_slot, start_slot + slots)
        return (self._diurnal[s % SLOTS_PER_DAY] / self._diurnal_norm) * self._weekday[
            (s // SLOTS_PER_DAY) % 7
        ]

    def _top(self, top_n: Optional[int]) -> List[ConfigDemand]:
        return self.universe.top(top_n) if top_n is not None else self.universe.demands

    def day_shock(self, day: int) -> float:
        """Market-wide demand multiplier for a day (shared across configs)."""
        return _day_shock(self.seed, self.day_shock_sigma, operator.index(day))

    def day_shocks(self, start_day: int, days: int) -> np.ndarray:
        """``day_shock`` for a run of days, as an array."""
        return np.asarray([self.day_shock(start_day + d) for d in range(days)])

    def _slot_shocks(self, start_slot: int, slots: int) -> np.ndarray:
        """Per-slot day shock for the window (shared across configs)."""
        days = np.arange(start_slot, start_slot + slots) // SLOTS_PER_DAY
        first = int(days[0]) if slots else 0
        per_day = self.day_shocks(first, int(days[-1]) - first + 1) if slots else np.zeros(0)
        return per_day[days - first]

    # -- expectations ------------------------------------------------------

    def expected_count(self, config: CallConfig, slot: int) -> float:
        """Deterministic expected calls for (config, slot)."""
        if slot < 0:
            raise ValueError("slot must be non-negative")
        rate = self._rates.get(config)
        if rate is None:
            return 0.0
        day = slot // SLOTS_PER_DAY
        shape = self._diurnal[slot % SLOTS_PER_DAY] / self._diurnal_norm
        return float((self.daily_calls * rate) * (shape * self._weekday[day % 7]))

    def expected_matrix(
        self,
        start_slot: int,
        slots: int,
        top_n: Optional[int] = None,
        multipliers: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Expected calls for a whole window: ``(n_configs, slots)``.

        Rows follow ``universe.top(top_n)`` order; entry ``[i, j]``
        equals ``expected_count(configs[i], start_slot + j)`` exactly.
        ``multipliers`` (broadcastable to ``(n_configs, slots)``) scales
        the expectation per (config, slot) — the stress-campaign hook
        for flash crowds, holiday shifts, and correlated demand shocks.
        """
        if start_slot < 0:
            raise ValueError("start_slot must be non-negative")
        if slots < 0:
            raise ValueError("slots must be non-negative")
        n = len(self._top(top_n))
        scaled = self.daily_calls * self._rate_arr[:n]
        expected = scaled[:, None] * self._slot_shape(start_slot, slots)[None, :]
        if multipliers is not None:
            expected = expected * np.asarray(multipliers, dtype=np.float64)
        return expected

    # -- sampling ----------------------------------------------------------

    def counts_matrix(
        self,
        start_slot: int,
        slots: int,
        top_n: Optional[int] = None,
        multipliers: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sampled counts for a whole window: int64 ``(n_configs, slots)``.

        Entry ``[i, j]`` equals ``sample_count(configs[i],
        start_slot + j)`` — the scalar APIs are views of this stream.
        ``multipliers`` scales the Poisson rate per (config, slot)
        *before* the inverse-CDF draw: the same slot-addressed uniforms
        feed a scaled λ, so a stressed window stays a pure function of
        ``(seed, config, slot, multiplier)`` and unstressed entries are
        bit-identical to the unstressed window.
        """
        expected = self.expected_matrix(start_slot, slots, top_n, multipliers=multipliers)
        lam = expected * self._slot_shocks(start_slot, slots)[None, :]
        demands = self._top(top_n)
        uniforms = np.empty((len(demands), slots))
        for i, demand in enumerate(demands):
            uniforms[i] = self._config_uniforms(demand.config, start_slot, slots)
        return _poisson_from_uniform(uniforms, lam)

    def sample_count(self, config: CallConfig, slot: int) -> int:
        """Poisson-sampled calls for (config, slot), deterministic."""
        lam = self.expected_count(config, slot) * self.day_shock(slot // SLOTS_PER_DAY)
        if lam <= 0:
            return 0
        u = self._config_uniforms(config, slot, 1)
        return int(_poisson_from_uniform(u, np.asarray([lam]))[0])

    def counts_for_slot(self, slot: int, top_n: Optional[int] = None) -> Dict[CallConfig, int]:
        """Sampled counts for every (top_n) config in one slot."""
        demands = self._top(top_n)
        counts = self.counts_matrix(slot, 1, top_n)[:, 0]
        return {
            demands[i].config: int(count) for i, count in enumerate(counts) if count > 0
        }

    def series(self, config: CallConfig, start_slot: int, slots: int) -> np.ndarray:
        """Sampled demand time series for one config."""
        if start_slot < 0:
            raise ValueError("start_slot must be non-negative")
        rate = self._rates.get(config)
        if rate is None:
            return np.zeros(slots, dtype=np.int64)
        lam = (
            (self.daily_calls * rate)
            * self._slot_shape(start_slot, slots)
            * self._slot_shocks(start_slot, slots)
        )
        u = self._config_uniforms(config, start_slot, slots)
        return _poisson_from_uniform(u, lam)
