"""Individual call traces for the online-controller simulation.

The oracle evaluation (§7) only needs per-config counts, but the
practical evaluation (§8) simulates the *controller*: calls arrive one
participant at a time, the MP DC and routing option must be chosen when
the **first** participant joins, and the call may have to be migrated
once the true config becomes known ~5 minutes in (§6.4).  That requires
individual calls with a first-joiner country and a reveal of the final
config — which is what this module generates, consistently with the
aggregate :class:`repro.workload.demand.DemandModel`.

Two representations share one sample stream:

* :meth:`TraceGenerator.calls_for_slot` / ``calls_for_window`` — the
  scalar reference: one :class:`Call` object per call, drawn in a
  per-(config, slot) Python loop;
* :meth:`TraceGenerator.table_for_window` — the batch path: a
  :class:`CallTable` (structure-of-arrays over the same calls) built
  from one :meth:`~repro.workload.demand.DemandModel.counts_matrix`
  window with vectorized duration and first-joiner draws.

Per-call randomness is counter-based, mirroring the demand model's
scheme: each (config, slot) owns a Philox stream keyed on
``(seed, stable_hash(config))`` with the slot in the counter, and every
draw is a pure function of that stream's uniforms (inverse-CDF), so the
batched table reproduces the scalar calls bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.world import stable_hash
from .configs import CallConfig
from .demand import SLOTS_PER_DAY, DemandModel

#: Call-duration distribution: geometric(p) clipped to [1, max] slots —
#: median ~1 slot (30 min), tail capped at 3 hours.
DURATION_P = 0.6
MAX_DURATION_SLOTS = 6
_LOG_1MP = float(np.log1p(-DURATION_P))


def duration_from_uniform(u):
    """Clipped-geometric duration(s) from uniform(s), by inverse CDF.

    ``geometric(p)`` has CDF ``1 - (1-p)**k``, so the smallest ``k``
    with ``u < CDF(k)`` is ``ceil(log(1-u)/log(1-p))``; the result is
    clipped to ``[1, MAX_DURATION_SLOTS]``.  Works elementwise on
    arrays and on scalars, with identical float behaviour — which is
    what keeps the scalar and batched trace paths on one stream.
    """
    k = np.ceil(np.log1p(-u) / _LOG_1MP)
    return np.clip(k, 1, MAX_DURATION_SLOTS).astype(np.int64)


def first_joiner_from_uniform(cum_weights: np.ndarray, u):
    """Index of the first joiner's country drawn by inverse CDF.

    ``cum_weights`` is the config's cumulative per-country participant
    distribution (ends at ~1.0); accepts scalar or array uniforms.
    """
    idx = np.searchsorted(cum_weights, u, side="right")
    return np.minimum(idx, len(cum_weights) - 1)


@dataclass(frozen=True)
class Call:
    """One call drawn from the trace generator.

    ``first_joiner_country`` is the only information the controller has
    at assignment time; ``config`` is the true (final) call config that
    becomes observable ~5 minutes into the call.
    """

    call_id: int
    config: CallConfig
    start_slot: int
    duration_slots: int
    first_joiner_country: str

    def __post_init__(self) -> None:
        if self.duration_slots < 1:
            raise ValueError("calls last at least one slot")
        if self.first_joiner_country not in self.config.countries:
            raise ValueError("first joiner must belong to the call config")

    @property
    def end_slot(self) -> int:
        return self.start_slot + self.duration_slots

    def active_in(self, slot: int) -> bool:
        return self.start_slot <= slot < self.end_slot


class CallTable:
    """A window of calls as parallel arrays (structure-of-arrays).

    The canonical trace representation for batch consumers: call ``i``
    is ``(configs[config_idx[i]], start_slot[i], duration_slots[i],
    first joiner = config.countries[first_joiner_idx[i]])`` with call id
    ``id_offset + i``.  ``configs`` is the interned config universe the
    index column points into (rows of the generating
    ``counts_matrix``); :class:`Call` objects are lazy views
    (:meth:`call`, iteration) so scalar consumers keep working.
    """

    __slots__ = (
        "configs",
        "config_idx",
        "start_slot",
        "duration_slots",
        "first_joiner_idx",
        "id_offset",
    )

    def __init__(
        self,
        configs: Sequence[CallConfig],
        config_idx: np.ndarray,
        start_slot: np.ndarray,
        duration_slots: np.ndarray,
        first_joiner_idx: np.ndarray,
        id_offset: int = 0,
    ) -> None:
        self.configs: Tuple[CallConfig, ...] = tuple(configs)
        self.config_idx = np.asarray(config_idx, dtype=np.int64)
        self.start_slot = np.asarray(start_slot, dtype=np.int64)
        self.duration_slots = np.asarray(duration_slots, dtype=np.int64)
        self.first_joiner_idx = np.asarray(first_joiner_idx, dtype=np.int64)
        self.id_offset = int(id_offset)
        n = len(self.config_idx)
        for name in ("start_slot", "duration_slots", "first_joiner_idx"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have one entry per call")
        if n and (self.duration_slots < 1).any():
            raise ValueError("calls last at least one slot")

    def __len__(self) -> int:
        return len(self.config_idx)

    @property
    def call_ids(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.int64) + self.id_offset

    @property
    def end_slot(self) -> np.ndarray:
        return self.start_slot + self.duration_slots

    def config(self, i: int) -> CallConfig:
        return self.configs[self.config_idx[i]]

    def first_joiner_country(self, i: int) -> str:
        config = self.configs[self.config_idx[i]]
        return config.countries[self.first_joiner_idx[i]]

    def call(self, i: int) -> Call:
        """Lazy :class:`Call` view of row ``i``."""
        if i < 0:
            i += len(self)
        return Call(
            self.id_offset + i,
            self.config(i),
            int(self.start_slot[i]),
            int(self.duration_slots[i]),
            self.first_joiner_country(i),
        )

    def __iter__(self) -> Iterator[Call]:
        for i in range(len(self)):
            yield self.call(i)

    def to_calls(self) -> List[Call]:
        """Materialize every row as a :class:`Call` (the scalar view)."""
        return [self.call(i) for i in range(len(self))]

    def demand_table(
        self, reduced: bool = True, slots_per_day: Optional[int] = None
    ) -> Dict[Tuple[int, CallConfig], float]:
        """Aggregate the trace back into a per-(slot, config) table.

        With ``reduced=True`` counts are grouped by reduced call config
        (§6.2: ``N`` calls of a factor-``g`` config become ``N*g``
        reduced calls); ``slots_per_day`` folds absolute slots onto
        slot-of-day keys.  Built from the same counts the generator
        expanded, so a day table equals ``oracle_demand_for_day`` for
        the same demand model and ``top_n``.
        """
        if not len(self):
            return {}
        slots = self.start_slot % slots_per_day if slots_per_day else self.start_slot
        rows = np.stack([slots, self.config_idx], axis=1)
        uniq, counts = np.unique(rows, axis=0, return_counts=True)
        table: Dict[Tuple[int, CallConfig], float] = {}
        for (t, ci), n in zip(uniq, counts):
            config = self.configs[int(ci)]
            value = float(n)
            if reduced:
                value *= float(config.reduction_factor())
                config = config.reduced()
            key = (int(t), config)
            table[key] = table.get(key, 0.0) + value
        return table


@dataclass(frozen=True)
class _ConfigDraw:
    """Cached per-config sampling tables (countries + cumulative weights)."""

    countries: Tuple[str, ...]
    cum_weights: np.ndarray


class TraceGenerator:
    """Expands a :class:`DemandModel` into individual calls.

    For each (config, slot) the generator emits ``sample_count`` calls;
    each call picks its first joiner weighted by the config's per-country
    participant counts and draws a duration from a clipped geometric
    (median ~1 slot, tail up to 3 hours).

    ``calls_for_slot`` / ``calls_for_window`` are the pinned scalar
    reference; :meth:`table_for_window` produces the same calls as a
    :class:`CallTable` in one batched pass.
    """

    def __init__(
        self, demand: DemandModel, top_n_configs: Optional[int] = None, seed: int = 37
    ) -> None:
        self.demand = demand
        self.top_n_configs = top_n_configs
        self.seed = seed
        self._draws: Dict[CallConfig, _ConfigDraw] = {}
        self._philox_keys: Dict[CallConfig, np.ndarray] = {}
        self._universe: Optional[Tuple[CallConfig, ...]] = None
        self._str_order: Optional[List[int]] = None

    # -- the per-(config, slot) counter-based stream ----------------------

    def _philox_key(self, config: CallConfig) -> np.ndarray:
        key = self._philox_keys.get(config)
        if key is None:
            key = np.array(
                [np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stable_hash(str(config)))],
                dtype=np.uint64,
            )
            self._philox_keys[config] = key
        return key

    def _call_rng(self, config: CallConfig, slot: int) -> np.random.Generator:
        """Slot-addressed Philox stream for one config's calls.

        The key is ``(seed, stable_hash(config))`` and the slot sits in
        the counter's third word, so every (config, slot) owns an
        independent stream regardless of which window is generated —
        the same scheme :class:`DemandModel` uses for counts.
        """
        counter = np.array([0, 0, np.uint64(slot), 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=self._philox_key(config), counter=counter))

    def _draw(self, config: CallConfig) -> _ConfigDraw:
        draw = self._draws.get(config)
        if draw is None:
            weights = np.array([n for _, n in config.participants], dtype=float)
            weights /= weights.sum()
            draw = _ConfigDraw(config.countries, np.cumsum(weights))
            self._draws[config] = draw
        return draw

    def _configs(self) -> Tuple[CallConfig, ...]:
        """The interned config universe (``counts_matrix`` row order)."""
        if self._universe is None:
            universe = self.demand.universe
            items = (
                universe.top(self.top_n_configs)
                if self.top_n_configs is not None
                else universe.demands
            )
            self._universe = tuple(item.config for item in items)
            self._str_order = sorted(
                range(len(self._universe)), key=lambda i: str(self._universe[i])
            )
        return self._universe

    # -- scalar reference --------------------------------------------------

    def calls_for_slot(self, slot: int, id_offset: int = 0) -> List[Call]:
        """All calls starting in one 30-minute slot (scalar reference)."""
        calls: List[Call] = []
        counts = self.demand.counts_for_slot(slot, top_n=self.top_n_configs)
        call_id = id_offset
        for config, count in sorted(counts.items(), key=lambda kv: str(kv[0])):
            rng = self._call_rng(config, slot)
            draw = self._draw(config)
            for _ in range(count):
                u_first = rng.random()
                u_duration = rng.random()
                first = draw.countries[int(first_joiner_from_uniform(draw.cum_weights, u_first))]
                duration = int(duration_from_uniform(u_duration))
                calls.append(Call(call_id, config, slot, duration, first))
                call_id += 1
        return calls

    def calls_for_window(self, start_slot: int, slots: int) -> List[Call]:
        """All calls starting within [start_slot, start_slot + slots)."""
        if slots < 0:
            raise ValueError("slots must be non-negative")
        calls: List[Call] = []
        for slot in range(start_slot, start_slot + slots):
            calls.extend(self.calls_for_slot(slot, id_offset=len(calls)))
        return calls

    def calls_for_day(self, day: int) -> List[Call]:
        """All calls starting on one day (day 0 = Monday)."""
        return self.calls_for_window(day * SLOTS_PER_DAY, SLOTS_PER_DAY)

    # -- batch path --------------------------------------------------------

    def table_for_window(
        self,
        start_slot: int,
        slots: int,
        id_offset: int = 0,
        multipliers: Optional[np.ndarray] = None,
    ) -> CallTable:
        """One window of calls as a :class:`CallTable`, in one pass.

        Row-for-row identical to :meth:`calls_for_window` (same counts,
        same per-(config, slot) uniforms, same inverse-CDF draws), but
        the counts come from one ``counts_matrix`` window and the
        duration / first-joiner transforms run vectorized over all
        calls at once.  ``multipliers`` (broadcastable to
        ``(n_configs, slots)``) scales the Poisson rates — the stress
        campaigns' flash-crowd / holiday / shock hook; per-call draws
        stay on the same slot-addressed streams.
        """
        if slots < 0:
            raise ValueError("slots must be non-negative")
        configs = self._configs()
        counts = self.demand.counts_matrix(
            start_slot, slots, top_n=self.top_n_configs, multipliers=multipliers
        )
        order = self._str_order
        assert order is not None

        # One uniform block per active (config, slot), drawn config-major
        # so each config's Philox is constructed once and re-pointed at
        # successive slots by counter mutation (streams are independent,
        # so draw order does not matter); parts are then reassembled in
        # the scalar emission order: slot-major, configs by str within a
        # slot.  Each block holds the same doubles the scalar path draws
        # call by call — evens pick the first joiner, odds the duration.
        parts: List[Tuple[int, int, int, int, np.ndarray]] = []
        for position, i in enumerate(order):
            row = counts[i]
            active = np.nonzero(row > 0)[0]
            if not len(active):
                continue
            bit_generator = np.random.Philox(key=self._philox_key(configs[i]))
            state = bit_generator.state
            counter = state["state"]["counter"]
            generator = np.random.Generator(bit_generator)
            for j in active:
                count = int(row[j])
                counter[:] = 0
                counter[2] = np.uint64(start_slot + int(j))
                state["buffer_pos"] = 4
                bit_generator.state = state
                parts.append((int(j), position, i, count, generator.random(2 * count)))
        parts.sort(key=lambda part: (part[0], part[1]))

        if not parts:
            empty = np.zeros(0, dtype=np.int64)
            return CallTable(configs, empty, empty, empty, empty, id_offset)

        part_counts = np.asarray([part[3] for part in parts], dtype=np.int64)
        part_configs = np.asarray([part[2] for part in parts], dtype=np.int64)
        config_idx = np.repeat(part_configs, part_counts)
        start_slots = np.repeat(
            start_slot + np.asarray([part[0] for part in parts], dtype=np.int64), part_counts
        )
        uniforms = np.concatenate([part[4] for part in parts])
        u_first = uniforms[0::2]
        durations = duration_from_uniform(uniforms[1::2])
        # A single-country config always draws index 0 (its cumulative
        # weights are [1.0] and u < 1), so only the parts of
        # multi-country configs search: each one's calls are a
        # contiguous run.
        first_idx = np.zeros(len(config_idx), dtype=np.int64)
        part_end = np.cumsum(part_counts)
        multi = np.asarray([len(config.countries) > 1 for config in configs])
        for k in np.flatnonzero(multi[part_configs]):
            calls = slice(part_end[k] - part_counts[k], part_end[k])
            draw = self._draw(configs[part_configs[k]])
            first_idx[calls] = first_joiner_from_uniform(draw.cum_weights, u_first[calls])
        return CallTable(configs, config_idx, start_slots, durations, first_idx, id_offset)

    def table_for_day(self, day: int, multipliers: Optional[np.ndarray] = None) -> CallTable:
        """One day of calls as a :class:`CallTable` (day 0 = Monday)."""
        return self.table_for_window(
            day * SLOTS_PER_DAY, SLOTS_PER_DAY, multipliers=multipliers
        )
