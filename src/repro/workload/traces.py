"""Individual call traces for the online-controller simulation.

The oracle evaluation (§7) only needs per-config counts, but the
practical evaluation (§8) simulates the *controller*: calls arrive one
participant at a time, the MP DC and routing option must be chosen when
the **first** participant joins, and the call may have to be migrated
once the true config becomes known ~5 minutes in (§6.4).  That requires
individual calls with a first-joiner country and a reveal of the final
config — which is what this module generates, consistently with the
aggregate :class:`repro.workload.demand.DemandModel`.

:meth:`TraceGenerator.table_for_window` builds a window's calls as a
:class:`CallTable` (structure-of-arrays) from one
:meth:`~repro.workload.demand.DemandModel.counts_matrix` window, with
vectorized duration and first-joiner draws; :class:`Call` objects are
lazy views of its rows.

Per-call randomness is counter-based, mirroring the demand model's
scheme: each (config, slot) owns a Philox stream keyed on
``(seed, stable_hash(config))`` with the slot in the counter, and every
draw is a pure function of that stream's uniforms (inverse-CDF), so a
table equals the per-(config, slot) loop of
``tests/scalar_reference.py`` call for call.
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

_INDEX_DTYPES = tuple(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64))


def index_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype holding every value in
    ``[0, bound]``.

    The per-call index columns of :class:`CallTable`,
    :class:`~repro.core.controller.AssignmentBatch` and the sweep's
    ``DaySummary`` are stored in it.  ``bound`` itself fits, so
    ``idx + 1`` does too; any other arithmetic that combines indices
    (packed keys, ``slot * width + row``) must widen to int64 first:
    NumPy keeps the narrow dtype for ``narrow * python_int`` and wraps
    silently, or raises :class:`OverflowError` when the Python int
    itself does not fit.
    """
    for dtype in _INDEX_DTYPES:
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"index bound {bound} does not fit in int64")


def index_column(values, name: str, bound: int, low: int = 0) -> np.ndarray:
    """``values`` as an :func:`index_dtype` ``(bound)`` array, checked to
    lie in ``[low, bound)``; :class:`ValueError` naming the column
    otherwise.  An array already in that dtype is not copied."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        array = array.astype(np.int64)
    if array.size and (int(array.min()) < low or int(array.max()) >= bound):
        raise ValueError(
            f"{name} must lie in [{low}, {bound}), got [{array.min()}, {array.max()}]"
        )
    return array.astype(index_dtype(bound), copy=False)


#: The dtype of :class:`CallTable`'s duration column, whose values lie
#: in ``[1, MAX_DURATION_SLOTS]``.
_DURATION_DTYPE = index_dtype(MAX_DURATION_SLOTS + 1)


def duration_from_uniform(u):
    """Clipped-geometric duration(s) from uniform(s), by inverse CDF.

    ``geometric(p)`` has CDF ``1 - (1-p)**k``, so the smallest ``k``
    with ``u < CDF(k)`` is ``ceil(log(1-u)/log(1-p))``; the result is
    clipped to ``[1, MAX_DURATION_SLOTS]``, in the table's duration dtype.
    Works elementwise on arrays and on scalars, with identical float
    behaviour.
    """
    k = np.ceil(np.log1p(-u) / _LOG_1MP)
    return np.clip(k, 1, MAX_DURATION_SLOTS).astype(_DURATION_DTYPE)


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

    Each index column is stored in :func:`index_dtype` of its bound —
    ``len(configs)`` for ``config_idx``, the most countries in a config
    for ``first_joiner_idx``, one past :data:`MAX_DURATION_SLOTS` for
    ``duration_slots`` and the largest end slot for ``start_slot`` —
    so a Europe top-100 day takes 5 bytes per call, not 32.  The
    constructor accepts any integer arrays or lists and raises
    :class:`ValueError` naming the column for a value out of range
    (an index outside ``[0, bound)``, a duration outside ``[1,
    MAX_DURATION_SLOTS]``, a negative start).  Widen a column to int64
    before combining it with other indices; :attr:`end_slot` and
    :attr:`call_ids` are int64 already.
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
        n = len(config_idx)
        for name, column in (
            ("start_slot", start_slot),
            ("duration_slots", duration_slots),
            ("first_joiner_idx", first_joiner_idx),
        ):
            if len(column) != n:
                raise ValueError(f"{name} must have one entry per call")
        self.config_idx = index_column(config_idx, "config_idx", len(self.configs))
        self.first_joiner_idx = index_column(
            first_joiner_idx,
            "first_joiner_idx",
            max((len(config.countries) for config in self.configs), default=0),
        )
        self.duration_slots = index_column(
            duration_slots, "duration_slots", MAX_DURATION_SLOTS + 1, low=1
        )
        start = np.asarray(start_slot)
        if start.dtype.kind not in "iu":
            start = start.astype(np.int64)
        last_end = 0
        if n:
            # Summed in a dtype that holds the largest start plus the
            # longest duration, so the largest end slot is exact.
            wide = index_dtype(max(int(start.max()), 0) + MAX_DURATION_SLOTS)
            last_end = int(np.add(start, self.duration_slots, dtype=wide).max())
        self.start_slot = index_column(start, "start_slot", last_end)
        self.id_offset = int(id_offset)

    def __len__(self) -> int:
        return len(self.config_idx)

    @property
    def call_ids(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.int64) + self.id_offset

    @property
    def end_slot(self) -> np.ndarray:
        """Each call's end slot, as int64."""
        return np.add(self.start_slot, self.duration_slots, dtype=np.int64)

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
        slots = (
            np.remainder(self.start_slot, slots_per_day, dtype=np.int64)
            if slots_per_day
            else self.start_slot
        )
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

    For each (config, slot) the generator emits the demand model's
    sampled count of calls; each call picks its first joiner weighted by
    the config's per-country participant counts and draws a duration
    from a clipped geometric (median ~1 slot, tail up to 3 hours).
    :meth:`table_for_window` produces a window's calls as a
    :class:`CallTable` in one pass.
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

    # -- batch path --------------------------------------------------------

    def table_for_window(
        self,
        start_slot: int,
        slots: int,
        id_offset: int = 0,
        multipliers: Optional[np.ndarray] = None,
    ) -> CallTable:
        """One window of calls as a :class:`CallTable`, in one pass.

        The counts come from one ``counts_matrix`` window, and the
        duration and first-joiner transforms run vectorized over all
        calls at once, on each (config, slot)'s own stream.
        ``multipliers`` (broadcastable to
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
        # emission order: slot-major, configs by str within a slot.
        # Each block holds a call's doubles in pairs: evens pick the
        # first joiner, odds the duration.
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
            empty = np.zeros(0, dtype=np.int8)
            return CallTable(configs, empty, empty, empty, empty, id_offset)

        # Columns are built in the dtypes CallTable stores.  The start
        # column's dtype holds the window's last start plus the longest
        # duration; CallTable narrows it further only when the actual
        # end slots fit a narrower dtype than that bound.
        part_counts = np.asarray([part[3] for part in parts], dtype=np.int64)
        part_configs = np.asarray(
            [part[2] for part in parts], dtype=index_dtype(len(configs))
        )
        config_idx = np.repeat(part_configs, part_counts)
        start_slots = np.repeat(
            np.asarray(
                [start_slot + part[0] for part in parts],
                dtype=index_dtype(start_slot + slots - 1 + MAX_DURATION_SLOTS),
            ),
            part_counts,
        )
        uniforms = np.concatenate([part[4] for part in parts])
        u_first = uniforms[0::2]
        durations = duration_from_uniform(uniforms[1::2])
        # A single-country config always draws index 0 (its cumulative
        # weights are [1.0] and u < 1), so only the parts of
        # multi-country configs search: each one's calls are a
        # contiguous run.
        first_idx = np.zeros(
            len(config_idx),
            dtype=index_dtype(max(len(config.countries) for config in configs)),
        )
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
