"""Online controllers: per-call assignment when the first user joins (§6.4, §8.1).

All controllers face the same information constraint: the MP DC and
routing option must be chosen when the *first* participant joins, before
the true call config is known.  Five minutes in, the config converges
and a controller may have to migrate the call to follow its plan —
inter-DC migrations are the user-visible cost the reduced-call-config
mechanism (§6.2) exists to cut (Table 4).

Controllers:

* :class:`TitanNextController` — weighted-random draw from the offline
  precomputed plan using the guessed (intra-country) reduced config,
  reconciliation with quota accounting at reveal time;
* :class:`FirstJoinerWrr` — capacity-tracked weighted round robin;
* :class:`FirstJoinerLf` — latency-sorted buckets, first with capacity;
* :class:`FirstJoinerTitan` — weighted-random DC by cores, random
  routing by the pair's Titan fraction.

Each controller has two processing paths over one sample stream:

* ``process(call)`` — the scalar reference, one :class:`Call` at a
  time;
* ``process_table(table)`` — the batch path over a whole
  :class:`~repro.workload.traces.CallTable`, returning an
  :class:`AssignmentBatch`.  Every random decision is an inverse-CDF
  transform of raw uniforms, drawn in the same order as the scalar
  loop, so the batch path reproduces the scalar assignments and
  :class:`ControllerStats` call for call.

Both paths place only the scenario's own traffic.  A first-joiner
baseline raises :class:`KeyError` on a call whose config has a country
outside ``scenario.country_codes`` (the error scoring raises for it),
and the Titan-Next batch path on a plan DC outside
``scenario.dc_codes``, so every :class:`AssignmentBatch` indexes the
scenario's own DC list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..net.latency import INTERNET, WAN
from ..workload.configs import CallConfig
from ..workload.traces import Call, CallTable
from .plan import QUOTA_EPS, OfflinePlan, QuotaEntry, QuotaIndex
from .scenario import Scenario

#: Routing options in batch index order (0 = WAN, 1 = INTERNET).
ROUTING_OPTION_ORDER: Tuple[str, str] = (WAN, INTERNET)
_OPTION_INDEX: Dict[str, int] = {opt: i for i, opt in enumerate(ROUTING_OPTION_ORDER)}

#: Media order the controller tries for its intra-country guesses —
#: shared by the scalar and batch TitanNext paths, whose call-for-call
#: equivalence depends on identical guess sequences.
GUESS_MEDIA: Tuple[str, str, str] = ("video", "audio", "screenshare")


@dataclass
class CallAssignment:
    """Final placement of one call, including migration history."""

    call: Call
    initial_dc: str
    initial_option: str
    final_dc: str
    final_option: str

    @property
    def dc_migrated(self) -> bool:
        """Inter-DC migration — the damaging kind (§8.4)."""
        return self.initial_dc != self.final_dc

    @property
    def option_migrated(self) -> bool:
        return self.initial_option != self.final_option


@dataclass
class ControllerStats:
    """Aggregate counters for one simulated horizon."""

    calls: int = 0
    dc_migrations: int = 0
    option_migrations: int = 0
    unplanned: int = 0

    @property
    def dc_migration_rate(self) -> float:
        return self.dc_migrations / self.calls if self.calls else 0.0

    @property
    def option_migration_rate(self) -> float:
        """Routing-option changes per call (cheap, intra-DC, §8.4)."""
        return self.option_migrations / self.calls if self.calls else 0.0

    @property
    def unplanned_rate(self) -> float:
        """Fraction of calls the plan could not place (§6.4 surge path)."""
        return self.unplanned / self.calls if self.calls else 0.0


class AssignmentBatch:
    """Placements for a whole :class:`CallTable` as parallel arrays.

    Row ``i`` is the assignment of ``table.call(i)``: integer indices
    into ``dc_codes`` and ``options`` for the initial and final
    placements.  :class:`CallAssignment` objects are lazy views
    (indexing, iteration), so scalar consumers keep working while batch
    consumers aggregate straight off the arrays.
    """

    __slots__ = (
        "table",
        "initial_dc_idx",
        "initial_option_idx",
        "final_dc_idx",
        "final_option_idx",
        "dc_codes",
        "options",
    )

    def __init__(
        self,
        table: CallTable,
        initial_dc_idx: np.ndarray,
        initial_option_idx: np.ndarray,
        final_dc_idx: np.ndarray,
        final_option_idx: np.ndarray,
        dc_codes: Sequence[str],
        options: Tuple[str, str] = ROUTING_OPTION_ORDER,
    ) -> None:
        self.table = table
        self.initial_dc_idx = np.asarray(initial_dc_idx, dtype=np.int64)
        self.initial_option_idx = np.asarray(initial_option_idx, dtype=np.int64)
        self.final_dc_idx = np.asarray(final_dc_idx, dtype=np.int64)
        self.final_option_idx = np.asarray(final_option_idx, dtype=np.int64)
        self.dc_codes: Tuple[str, ...] = tuple(dc_codes)
        self.options = options

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i: int) -> CallAssignment:
        if i < 0:
            i += len(self)
        return CallAssignment(
            self.table.call(i),
            self.dc_codes[self.initial_dc_idx[i]],
            self.options[self.initial_option_idx[i]],
            self.dc_codes[self.final_dc_idx[i]],
            self.options[self.final_option_idx[i]],
        )

    def __iter__(self) -> Iterator[CallAssignment]:
        for i in range(len(self)):
            yield self[i]

    @property
    def dc_migrations(self) -> int:
        return int(np.count_nonzero(self.initial_dc_idx != self.final_dc_idx))

    @property
    def option_migrations(self) -> int:
        return int(np.count_nonzero(self.initial_option_idx != self.final_option_idx))

    def to_list(self) -> List[CallAssignment]:
        return [self[i] for i in range(len(self))]


class _UniformStream:
    """Buffered reader over a Generator's uniform stream.

    :meth:`peek` returns exactly what ``m`` successive ``rng.random()``
    calls would have — numpy fills arrays from the same underlying
    doubles — without consuming them, and :meth:`skip` consumes them, so
    a batch can look ahead at its draws and commit only the ones it
    used.  The buffer persists across batches (the generator itself has
    already advanced past it), so route every draw through one stream:
    a direct draw from the underlying generator would skip the buffered
    doubles and desynchronize all subsequent draws.
    """

    __slots__ = ("_rng", "_buffer", "_pos", "_chunk")

    def __init__(self, rng: np.random.Generator, chunk: int = 1024) -> None:
        self._rng = rng
        self._chunk = chunk
        self._buffer = rng.random(chunk)
        self._pos = 0

    def peek(self, m: int) -> np.ndarray:
        """The next ``m`` uniforms, left unconsumed."""
        short = self._pos + m - len(self._buffer)
        if short > 0:
            self._buffer = np.concatenate(
                (self._buffer[self._pos :], self._rng.random(max(short, self._chunk)))
            )
            self._pos = 0
        return self._buffer[self._pos : self._pos + m]

    def skip(self, m: int) -> None:
        """Consume the next ``m`` uniforms."""
        self.peek(m)
        self._pos += m


def weighted_shuffle_order(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Efraimidis–Spirakis weighted-random order from raw uniforms.

    Orders indices by descending ``u_i ** (1/w_i)`` (via the monotone
    ``log(u_i)/w_i``), which distributes like successive weighted draws
    without replacement.  Being a pure elementwise transform of
    pre-drawn uniforms — unlike ``rng.choice(replace=False, p=...)`` —
    it lets the batch path replay the scalar stream exactly.  Works on
    one call's vector or a ``(calls, buckets)`` matrix.
    """
    with np.errstate(divide="ignore"):
        keys = np.log(u) / weights
    return np.argsort(-keys, axis=-1, kind="stable")


def _table_countries(table: CallTable) -> Tuple[List[str], np.ndarray]:
    """First-joiner countries of a table: code list + per-call index."""
    codes: List[str] = []
    index: Dict[str, int] = {}
    flat: List[int] = []
    offsets = np.zeros(len(table.configs) + 1, dtype=np.int64)
    for ci, config in enumerate(table.configs):
        for code in config.countries:
            gi = index.get(code)
            if gi is None:
                gi = len(codes)
                index[code] = gi
                codes.append(code)
            flat.append(gi)
        offsets[ci + 1] = len(flat)
    flat_arr = np.asarray(flat, dtype=np.int64)
    per_call = (
        flat_arr[offsets[table.config_idx] + table.first_joiner_idx]
        if len(table)
        else np.zeros(0, dtype=np.int64)
    )
    return codes, per_call


#: Calls in the round after a break in both bulk replays,
#: :meth:`_CapacityTracker.admit_table` (which also opens each slot with
#: it) and :meth:`TitanNextController.process_table`: enough to amortize
#: a round's fixed NumPy cost, few enough that a round cut short by a
#: break wastes little.  Rounds double while they commit whole.
_FIRST_ROUND = 128


def _first_refused(
    usage: np.ndarray, flagged: np.ndarray, rows: np.ndarray, loads: np.ndarray, caps: np.ndarray
) -> int:
    """The first call of a round with an entry over its cap.

    ``rows``, ``loads`` and ``caps`` are ``(calls, entries)``: call ``i``
    adds ``loads[i, k]`` to ``usage[rows[i, k]]``, and the entry is
    refused when that running total exceeds ``caps[i, k]`` (``inf`` for
    entries never refused).  Only the ``flagged`` rows (sorted, each
    with an entry) are checked.  Each gets its running totals in one
    column, added in call order exactly as a loop of ``+=`` would (a
    column adds ``0.0`` at the other rows' entries, which changes no
    total).  Returns ``len(rows)`` when every entry fits.
    """
    mask = np.zeros(len(usage), dtype=bool)
    mask[flagged] = True
    mine = np.flatnonzero(mask[rows])
    col = np.searchsorted(flagged, rows.reshape(-1)[mine])
    steps = np.arange(1, len(mine) + 1)
    running = np.zeros((len(mine) + 1, len(flagged)))
    running[0] = usage[flagged]
    running[steps, col] = loads.reshape(-1)[mine]
    np.cumsum(running, axis=0, out=running)
    refused = running[steps, col] > caps.reshape(-1)[mine]
    first = int(refused.argmax())
    return int(mine[first]) // rows.shape[1] if refused[first] else len(rows)


def _commit_later(
    flat: np.ndarray,
    slot: int,
    width: int,
    rows: np.ndarray,
    loads: np.ndarray,
    durations: np.ndarray,
) -> None:
    """Add the ``(calls, entries)`` loads admitted at ``slot`` to the
    slots after it that each call lasts, in ``flat`` (``(slot, row)``
    usage of ``width`` rows per slot), each cell receiving its additions
    in call order.  Zero loads (the padding) are skipped: adding ``0.0``
    changes no total."""
    extra = np.repeat(durations - 1, rows.shape[1])
    keep = np.flatnonzero(loads.reshape(-1) > 0)
    rows, loads, extra = rows.reshape(-1)[keep], loads.reshape(-1)[keep], extra[keep]
    rep = np.repeat(np.arange(len(rows)), extra)
    step = 1 + np.arange(len(rep)) - np.repeat(np.cumsum(extra) - extra, extra)
    np.add.at(flat, (slot + step) * width + rows[rep], loads[rep])


@dataclass(frozen=True)
class _ConfigLoad:
    """Interned per-config resource profile for the capacity tracker."""

    cores: float
    country_idx: Tuple[int, ...]
    bandwidths: Tuple[float, ...]


class _CapacityTracker:
    """Concurrent compute usage per (DC, slot) and Internet Gbps per
    (country, DC, slot) — what first-joiner baselines check before
    admitting a call to a bucket.

    Usage lives in one dense ``(slot, row)`` array, grown geometrically
    along the slot axis: row ``d`` holds DC ``d``'s compute cores and
    row ``n_dc * (1 + c) + d`` the Internet Gbps from country ``c`` to
    DC ``d``, in the scenario's DC and country order, so one slot's
    usage is one contiguous row.  Capacity caps are snapshotted at
    construction.  Every config it is handed must keep to the
    scenario's countries (:meth:`load_for` raises otherwise).  The
    string-keyed methods, over the integer-indexed ``*_at`` steps,
    serve the scalar controllers; :meth:`admit_table` is the bulk path
    over the same array.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.dc_codes = list(scenario.dc_codes)
        self.dc_index = {dc: i for i, dc in enumerate(self.dc_codes)}
        self.country_index = {c: i for i, c in enumerate(scenario.country_codes)}
        self._caps = np.asarray(
            [scenario.compute_caps[dc] for dc in self.dc_codes], dtype=float
        )
        self._pair_caps = np.asarray(
            [
                [scenario.internet_cap_gbps(country, dc) for dc in self.dc_codes]
                for country in scenario.country_codes
            ],
            dtype=float,
        )
        self._slots = 64
        self._usage = np.zeros(
            (self._slots, (1 + len(scenario.country_codes)) * len(self.dc_codes))
        )
        self._loads: Dict[CallConfig, _ConfigLoad] = {}

    @property
    def _compute(self) -> np.ndarray:
        """Compute usage as a ``(dc, slot)`` view."""
        return self._usage[:, : len(self.dc_codes)].T

    @property
    def _internet(self) -> np.ndarray:
        """Internet usage as a ``(country, dc, slot)`` view."""
        n_dc = len(self.dc_codes)
        return self._usage[:, n_dc:].reshape(self._slots, -1, n_dc).transpose(1, 2, 0)

    def _ensure(self, slots: int) -> None:
        if slots <= self._slots:
            return
        new = self._slots
        while new < slots:
            new *= 2
        usage = np.zeros((new, self._usage.shape[1]))
        usage[: self._slots] = self._usage
        self._usage, self._slots = usage, new

    def load_for(self, config: CallConfig) -> _ConfigLoad:
        """The interned resource profile of a config; :class:`KeyError`
        for a country outside the scenario, as in scoring."""
        load = self._loads.get(config)
        if load is None:
            for country in config.countries:
                if country not in self.country_index:
                    raise KeyError(f"config country {country!r} is not part of the scenario")
            load = _ConfigLoad(
                config.compute_cores(),
                tuple(self.country_index[c] for c in config.countries),
                tuple(config.country_bandwidth_gbps(c) for c in config.countries),
            )
            self._loads[config] = load
        return load

    # -- integer-indexed steps of the scalar API --------------------------

    def compute_headroom_at(self, dc_i: int, slot: int, cores: float) -> bool:
        self._ensure(slot + 1)
        return self._usage[slot, dc_i] + cores <= self._caps[dc_i] + 1e-9

    def internet_headroom_at(self, load: _ConfigLoad, dc_i: int, slot: int) -> bool:
        self._ensure(slot + 1)
        n_dc = len(self.dc_codes)
        for ci, bw in zip(load.country_idx, load.bandwidths):
            if self._usage[slot, n_dc * (1 + ci) + dc_i] + bw > self._pair_caps[ci, dc_i] + 1e-12:
                return False
        return True

    def admit_at(
        self, load: _ConfigLoad, dc_i: int, internet: bool, start: int, end: int
    ) -> None:
        self._ensure(end)
        self._usage[start:end, dc_i] += load.cores
        if internet:
            n_dc = len(self.dc_codes)
            for ci, bw in zip(load.country_idx, load.bandwidths):
                self._usage[start:end, n_dc * (1 + ci) + dc_i] += bw

    # -- bulk admission ---------------------------------------------------

    def bucket_matrix(self, key_lists: Sequence[Sequence[Tuple[str, str]]]) -> np.ndarray:
        """``(dc, option)`` key lists as rows of bucket ids
        ``2 * dc + internet``, each row ending in at least one end
        marker ``2 * len(dc_codes)``, in the smallest unsigned dtype
        holding it."""
        end = 2 * len(self.dc_codes)
        width = 1 + max(len(keys) for keys in key_lists)
        rows = np.full((len(key_lists), width), end, dtype=np.min_scalar_type(end))
        for row, keys in enumerate(key_lists):
            rows[row, : len(keys)] = [2 * self.dc_index[dc] + (opt == INTERNET) for dc, opt in keys]
        return rows

    def admit_table(
        self,
        table: CallTable,
        orders: np.ndarray,
        order_row: np.ndarray,
        overflow_dc: int,
        keys: Optional[Callable[[int, int], np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """First-fit admission of a whole table, exact and in bulk.

        Call ``i`` tries the buckets of ``orders[order_row[i]]`` (a
        :meth:`bucket_matrix`): in column order, or, given ``keys``, by
        ascending ``keys(lo, hi)[i - lo]`` (one int64 per column for the
        calls ``lo..hi-1``), ties to the lower column, and overflows
        onto ``overflow_dc``'s WAN when no bucket has headroom.  The
        result is exactly that of the scalar ``process`` loop, which
        tries each bucket with :meth:`compute_headroom` and
        :meth:`internet_headroom` and admits with :meth:`admit`, call by
        call in table order: the same placements and the same usage,
        bit for bit.  Returns ``(dc, option, unplanned)`` with
        ``option`` 1 for the Internet.  A config outside the scenario's
        countries raises :class:`KeyError` before anything is admitted.

        Headroom is checked only at a call's start slot, and within one
        start slot usage only grows.  So each run of rows sharing a
        start slot is taken in rounds against a table of which (config,
        bucket) cells have headroom, exact at every round start:

        (a) every call of the round takes the first bucket of its order
            with headroom against the usage at the start of the round —
            every bucket it skips would fail in the loop too;
        (b) the round's loads are added to a copy of the slot's usage
            in call order, the loop's own float additions.  A row whose
            total plus the largest load that still fits on it stays
            under its cap can refuse no call of the round and leaves
            every cell on it as it was.  Only the other rows are
            flagged, and only they get running totals, which find the
            first call whose bucket no longer fits;
        (c) the calls before it are committed, the cells on the flagged
            rows are refreshed, and the next round starts at the
            breaking call: first in its round, it fits the first bucket
            with headroom, as in the loop.

        Loads on the slots after the start slot are read only by later
        runs, so they are committed, in call order, when the run ends.
        Rounds restart at :data:`_FIRST_ROUND` after a break and double
        while they commit whole.
        """
        n = len(table)
        dc_out = np.zeros(n, dtype=np.int64)
        inet_out = np.zeros(n, dtype=np.int64)
        if n == 0:
            return dc_out, inet_out, 0
        n_dc = len(self.dc_codes)
        self._ensure(int(table.end_slot.max()))
        usage = self._usage
        width = usage.shape[1]
        usage_flat = usage.reshape(-1)
        # Row caps, then a dummy row that padding entries load with 0.0.
        cap = np.concatenate(
            (self._caps + 1e-9, (self._pair_caps + 1e-12).reshape(-1), [np.inf])
        )

        # The entries of each (config, bucket) cell ``config * n_cell +
        # bucket``: the cores on the bucket's DC row, then for an
        # Internet bucket each country's Gbps on its (country, DC) row.
        # The last bucket is the overflow onto ``overflow_dc``'s WAN,
        # never refused (cap ``inf``).
        loads = [self.load_for(config) for config in table.configs]
        k_max = max(len(load.bandwidths) for load in loads)
        countries = np.zeros((len(loads), k_max), dtype=np.intp)
        gbps = np.zeros((len(loads), k_max))
        has = np.zeros((len(loads), k_max), dtype=bool)
        for c, load in enumerate(loads):
            k = len(load.bandwidths)
            countries[c, :k] = load.country_idx
            gbps[c, :k] = load.bandwidths
            has[c, :k] = True
        marker = 2 * n_dc
        n_cell = marker + 1
        bucket_dc = np.append(np.arange(marker) >> 1, overflow_dc)
        bucket_inet = np.append(np.arange(marker) & 1, 0)
        inet = (bucket_inet == 1)[None, :, None] & has[:, None, :]
        ent_row = np.empty((len(loads), n_cell, 1 + k_max), dtype=np.intp)
        ent_row[:, :, 0] = bucket_dc
        ent_row[:, :, 1:] = np.where(
            inet, n_dc * (1 + countries[:, None, :]) + bucket_dc[None, :, None], width
        )
        ent_load = np.zeros(ent_row.shape)
        ent_load[:, :, 0] = np.asarray([load.cores for load in loads])[:, None]
        ent_load[:, :, 1:] = np.where(inet, gbps[:, None, :], 0.0)
        ent_cap = cap[ent_row]
        ent_cap[:, marker, 0] = np.inf
        ent_row, ent_load, ent_cap = (
            a.reshape(-1, 1 + k_max) for a in (ent_row, ent_load, ent_cap)
        )

        # The distinct capped loads of each row, ascending, padded with
        # +inf: the ones that fit are a prefix, the last of them the
        # row's roomiest load.  ``room`` holds whether each fits; the
        # dummy row has no capped load, so its slots stay true and
        # stand for the uncapped entries.
        capped = np.flatnonzero(np.isfinite(ent_cap))
        level, entry_level = np.unique(
            np.stack((ent_row.flat[capped], ent_load.flat[capped])), axis=1,
            return_inverse=True,
        )
        level_row = level[0].astype(np.intp)
        rank = np.arange(level.shape[1]) - np.searchsorted(level_row, level_row)
        levels = np.full((width + 1, 1 + int(rank.max())), np.inf)
        levels[level_row, rank] = level[1]
        room = np.ones(levels.shape, dtype=bool)
        ent_room = np.full(ent_row.shape, width * levels.shape[1])
        ent_room.flat[capped] = (level_row * levels.shape[1] + rank)[entry_level.reshape(-1)]
        # ``(entries, cells)``: a cell's headroom is an ``all`` down a
        # column, which NumPy vectorizes across cells.
        ent_room = np.ascontiguousarray(ent_room.T)
        all_rows = np.unique(level_row)
        cur = np.zeros(width + 1)
        total = np.zeros(width + 1)
        feasible = np.ones(len(ent_row), dtype=bool)
        roomiest = np.full(width + 1, -np.inf)

        cfg_of, starts = table.config_idx, table.start_slot
        ramp = np.arange(n)
        if keys is None:
            # Calls of one (config, order row) pair share their pick: a
            # table kept exact as cells lose their headroom.
            pair_id = cfg_of * len(orders) + order_row
            lookup = np.zeros(len(loads) * len(orders), dtype=np.intp)
            lookup[pair_id] = 1
            pairs = np.flatnonzero(lookup)
            lookup[pairs] = np.arange(len(pairs))
            pair_of = lookup[pair_id]
            pair_cells = (pairs // len(orders) * n_cell)[:, None] + orders[pairs % len(orders)]
            pick = np.zeros(len(pairs), dtype=np.intp)

        def refresh(rows: np.ndarray, new_slot: bool = False) -> None:
            """Recheck which loads fit on ``rows``, the rows' roomiest
            loads and every cell's headroom; re-pick the pairs whose
            pick lost its headroom (every pair on a ``new_slot``, where
            usage may have fallen)."""
            fit = cur[rows, None] + levels[rows] <= cap[rows, None]
            room[rows] = fit
            count = np.count_nonzero(fit, axis=1)
            roomiest[rows] = np.where(count > 0, levels[rows, count - 1], -np.inf)
            np.all(np.take(room, ent_room), axis=0, out=feasible)
            if keys is None:
                stale = ramp[: len(pairs)] if new_slot else np.flatnonzero(~feasible[pick])
                grid = np.take(pair_cells, stale, axis=0)
                best = np.take(feasible, grid).argmax(axis=1)
                pick[stale] = np.take(grid, ramp[: len(stale)] * grid.shape[1] + best)

        chosen = np.zeros(n, dtype=np.intp)
        bounds = (np.flatnonzero(np.diff(starts)) + 1).tolist()
        unplanned = 0
        for lo, hi in zip([0] + bounds, bounds + [n]):
            slot = int(starts[lo])
            cur[:width] = usage[slot]
            refresh(all_rows, new_slot=True)
            if keys is not None:
                # The run's keys, and each call's cell of its best key.
                run_keys = keys(lo, hi)
                best = order_row[lo:hi] * orders.shape[1] + run_keys.argmin(axis=1)
                first = np.take(orders, best) + cfg_of[lo:hi] * n_cell
            pos = lo
            size = _FIRST_ROUND
            while pos < hi:
                cut = min(pos + size, hi)
                # (a) Each call's first bucket with headroom.
                if keys is None:
                    cells = np.take(pick, pair_of[pos:cut])
                else:
                    # Calls whose best cell has no headroom take the best
                    # key among the cells that have.
                    cells = first[pos - lo : cut - lo].copy()
                    miss = pos + np.flatnonzero(~np.take(feasible, cells))
                    if len(miss):
                        grid = np.take(orders, order_row[miss], axis=0)
                        grid = grid + cfg_of[miss, None] * n_cell
                        best = np.where(
                            np.take(feasible, grid), np.take(run_keys, miss - lo, axis=0), 0
                        ).argmin(axis=1)
                        best += ramp[: len(miss)] * grid.shape[1]
                        cells[miss - pos] = np.take(grid, best)
                # (b) Totals in call order; flag the rows that may refuse.
                rows = np.take(ent_row, cells, axis=0)
                amount = np.take(ent_load, cells, axis=0)
                np.copyto(total, cur)
                np.add.at(total, rows.reshape(-1), amount.reshape(-1))
                flagged = np.flatnonzero(total + roomiest > cap)
                brk = cut - pos
                if len(flagged):
                    brk = _first_refused(
                        cur, flagged, rows, amount, np.take(ent_cap, cells, axis=0)
                    )
                # (c) Commit the calls before the break, in call order.
                if brk == cut - pos:
                    np.copyto(cur, total)
                    size *= 2
                else:
                    np.add.at(cur, rows[:brk].reshape(-1), amount[:brk].reshape(-1))
                    size = _FIRST_ROUND
                if len(flagged):
                    refresh(flagged)
                chosen[pos : pos + brk] = cells[:brk]
                pos += brk
            # Write back the slot's usage and settle the run: outputs,
            # overflows and loads on later slots.
            usage[slot] = cur[:width]
            bucket = chosen[lo:hi] % n_cell
            dc_out[lo:hi] = bucket_dc[bucket]
            inet_out[lo:hi] = bucket_inet[bucket]
            unplanned += int(np.count_nonzero(bucket == marker))
            long = lo + np.flatnonzero(table.duration_slots[lo:hi] > 1)
            _commit_later(
                usage_flat, slot, width, np.take(ent_row, chosen[long], axis=0),
                np.take(ent_load, chosen[long], axis=0), table.duration_slots[long],
            )
        return dc_out, inet_out, unplanned

    # -- string-keyed scalar API ------------------------------------------

    def compute_headroom(self, dc: str, slot: int, cores: float) -> bool:
        return self.compute_headroom_at(self.dc_index[dc], slot, cores)

    def internet_headroom(self, config: CallConfig, dc: str, slot: int) -> bool:
        return self.internet_headroom_at(self.load_for(config), self.dc_index[dc], slot)

    def admit(self, config: CallConfig, dc: str, option: str, call: Call) -> None:
        self.admit_at(
            self.load_for(config),
            self.dc_index[dc],
            option == INTERNET,
            call.start_slot,
            call.end_slot,
        )


def _intra_country_guess(country: str, media: str) -> CallConfig:
    """The controller's working assumption for a brand-new call.

    "For a new call, we assume it as an intra-country call (such calls
    are in majority)" — the reduced intra-country config has a single
    participant (§6.2).
    """
    return CallConfig(((country, 1),), media)


def _previous_keys(
    true_key: np.ndarray, country: np.ndarray, recent: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each call's first guess, and each country's new most recent key.

    A call's first guess is the true plan key of the previous call from
    its first joiner's country; a country's first call in the table
    guesses ``recent[country]`` (carried from earlier tables, ``-1`` for
    none).  Returns ``(guess, last)``, ``last`` being ``recent`` with
    every first-joiner country set to its last call's true key.
    """
    order = np.argsort(country, kind="stable")
    grouped = country[order]
    heads = np.ones(len(order), dtype=bool)
    heads[1:] = grouped[1:] != grouped[:-1]
    previous = np.empty(len(order), dtype=true_key.dtype)
    previous[1:] = true_key[order[:-1]]
    previous[heads] = recent[grouped[heads]]
    guess = np.empty_like(previous)
    guess[order] = previous
    tails = np.append(heads[1:], True)
    last = recent.copy()
    last[grouped[tails]] = true_key[order[tails]]
    return guess, last


#: A unit consume succeeds while the quota is at least this: the scalar
#: path refuses when ``remaining < amount - QUOTA_EPS``.
_UNIT = 1.0 - QUOTA_EPS


def _unit_consumes(quota: np.ndarray) -> np.ndarray:
    """How many successive unit consumes each quota admits, as floats.

    The ``j``-th succeeds while ``quota - j >= 1 - QUOTA_EPS``.  Every
    ``quota - j`` is exact for an integer ``j`` below ``2**53``, so the
    float estimate is corrected by exact comparisons, and ``quota - j``
    equals ``j`` successive ``- 1.0`` steps bit for bit.
    """
    count = np.where(quota >= _UNIT, np.floor(quota - _UNIT) + 1.0, 0.0)
    count += quota - count >= _UNIT
    count -= (count > 0) & (quota - (count - 1.0) < _UNIT)
    return count


def _chain_picks(
    quota: np.ndarray,
    entry: np.ndarray,
    call: np.ndarray,
    u: np.ndarray,
    mutating: np.ndarray,
    dry: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted picks along every multi-bucket entry's op chain at once.

    Op ``i`` is a draw with uniform ``u[i]`` by call ``call[i]`` on entry
    (row of ``quota``) ``entry[i]``; a ``mutating`` op then consumes a
    unit from the picked bucket if it holds one.  Each entry's ops run
    in call order, and step ``j`` takes the ``j``-th op of every chain
    at once, against the quotas the earlier steps left.  A step
    reproduces :func:`~repro.core.plan.weighted_pick`: ``np.cumsum``
    adds the buckets in the loop's order, ``0.0`` for a bucket at or
    below ``QUOTA_EPS`` changes no partial sum, ``target = u * total``,
    and the pick is the first bucket with ``target < cumulative``, else
    the last positive one.  Steps are the longest chain, not the ops.
    ``quota`` is only read.

    Returns per op ``(pick, consumed, emptied)``: the bucket, whether a
    unit was consumed, and whether that emptied a ``dry`` entry.
    """
    order = np.argsort(entry.astype(np.int64) * (int(call.max()) + 1) + call, kind="stable")
    chained = entry[order]
    heads = np.ones(len(order), dtype=bool)
    heads[1:] = chained[1:] != chained[:-1]
    starts = np.flatnonzero(heads).astype(np.int32)
    lengths = np.diff(np.append(starts, len(order)))
    # Chains longest first: the chains still running at step ``j`` are
    # the first ``active[j]`` rows, and step ``j``'s ops one slice.
    rank = np.argsort(-lengths, kind="stable")
    row = np.empty(len(rank), dtype=np.int32)
    row[rank] = np.arange(len(rank), dtype=np.int32)
    active = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
    offset = np.zeros(len(active) + 1, dtype=np.int32)
    np.cumsum(active, out=offset[1:])
    slot = np.arange(len(order), dtype=np.int32) - np.repeat(starts, lengths)
    slot = offset[slot]
    slot += np.repeat(row, lengths)
    op = np.empty(len(order), dtype=np.int32)
    op[slot] = order
    del order, slot
    uniforms, mut = u[op], mutating[op]
    rows_entry = chained[starts[rank]]
    q = quota[rows_entry]
    dry_rows = dry[rows_entry]
    first_dry = int(dry_rows.argmax()) if dry_rows.any() else len(rank)

    pick = np.empty(len(op), dtype=np.int16)
    consumed = np.empty(len(op), dtype=bool)
    emptied = np.zeros(len(op), dtype=bool)
    flat_q = q.reshape(-1)
    row_start = np.arange(0, q.size, q.shape[1])
    last = q.shape[1] - 1
    bounds = offset.tolist()
    for j, m in enumerate(active.tolist()):
        lo, hi = bounds[j], bounds[j + 1]
        weights = q[:m]
        weights = np.where(weights > QUOTA_EPS, weights, 0.0)
        cumulative = np.cumsum(weights, axis=1)
        below = (uniforms[lo:hi] * cumulative[:, last])[:, None] < cumulative
        p = below.argmax(axis=1)
        # ``target < total`` fails only by rounding: take the last
        # positive bucket, as the loop does.
        if not below[:, last].all():
            miss = ~below[:, last]
            p[miss] = last - (weights[miss] > 0.0)[:, ::-1].argmax(axis=1)
        at = row_start[:m] + p
        picked = flat_q[at]
        ok = picked >= _UNIT
        ok &= mut[lo:hi]
        flat_q[at] = picked - ok
        pick[lo:hi] = p
        consumed[lo:hi] = ok
        if first_dry < m:
            done = ok & dry_rows[:m]
            done[done] = ~(q[:m][done] > QUOTA_EPS).any(axis=1)
            emptied[lo:hi] = done
    back = np.empty_like(op)
    back[op] = np.arange(len(op), dtype=op.dtype)
    return pick[back], consumed[back], emptied[back]


def _replay_round(
    first: np.ndarray,
    pair: np.ndarray,
    skip: np.ndarray,
    intra_row: np.ndarray,
    true_entry: np.ndarray,
    quota: np.ndarray,
    stream: _UniformStream,
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One round of the Titan-Next bulk replay; commits a prefix.

    Entries are rows of ``quota``, the last one an empty sentinel.
    Call ``i`` tries the entry ``first[i]``, then the entries
    ``intra_row[pair[i]]`` but column ``skip[i]``, and takes the first
    live one; ``true_entry[i]`` is its true plan key's entry.  Every
    path is fixed by which entries are live at the round start, and
    only a right guess's consume and a reveal's consume change quotas,
    so the ops are replayed per entry: closed form for entries with one
    live bucket, :func:`_chain_picks` for the rest.  The round breaks at
    the first call that reads an entry emptied earlier in the round;
    the calls before it commit their quotas and draws.  Returns
    ``(committed, chosen, planned, initial_pick, revealed,
    final_pick)`` over the committed calls.
    """
    n, sentinel = len(first), len(quota) - 1
    positive = quota > QUOTA_EPS
    live = positive.any(axis=1)
    multi = positive.sum(axis=1) > 1
    sole = positive.argmax(axis=1).astype(np.int16)
    units = _unit_consumes(quota)
    dry = live & (quota - units <= QUOTA_EPS).all(axis=1)
    sole_units = units[np.arange(len(quota)), sole]

    planned = live[first]
    chosen = np.where(planned, first, sentinel)
    intra_live = live[intra_row]
    for m in range(intra_row.shape[1]):
        hit = intra_live[pair, m] & (skip != m) & ~planned
        chosen[hit] = intra_row[pair[hit], m]
        planned |= hit
    right = planned & (chosen == true_entry)
    reveal = ~right & live[true_entry]
    draws = planned.astype(np.int8) + reveal
    ends = np.cumsum(draws, dtype=np.int32)
    u = stream.peek(int(ends[-1]))
    ends -= draws

    initial_pick, final_pick = sole[chosen], sole[true_entry]
    death = np.full(len(quota), n, dtype=np.int64)
    a_ops = np.flatnonzero(planned & multi[chosen])
    r_ops = np.flatnonzero(reveal & multi[true_entry])
    ops_entry = np.concatenate((chosen[a_ops], true_entry[r_ops]))
    ops_call = np.concatenate((a_ops, r_ops))
    if len(ops_call):
        pick, consumed, emptied = _chain_picks(
            quota,
            ops_entry,
            ops_call,
            u[np.concatenate((ends[a_ops], ends[r_ops] + planned[r_ops]))],
            np.concatenate((right[a_ops], np.ones(len(r_ops), dtype=bool))),
            dry,
        )
        initial_pick[a_ops] = pick[: len(a_ops)]
        final_pick[r_ops] = pick[len(a_ops) :]
        death[ops_entry[emptied]] = ops_call[emptied]

    # A one-bucket entry's k-th consume succeeds while k <= its units,
    # and a dry one empties at the last of them.
    def mutations(stop: int) -> np.ndarray:
        return np.bincount(chosen[:stop][right[:stop]], minlength=len(quota)) + np.bincount(
            true_entry[:stop][reveal[:stop]], minlength=len(quota)
        )

    consumes = mutations(n)
    dying = dry & ~multi & (consumes >= sole_units)
    if dying.any():
        at_a = np.flatnonzero(right & dying[chosen])
        at_r = np.flatnonzero(reveal & dying[true_entry])
        calls = np.concatenate((at_a, at_r))
        owner = np.concatenate((chosen[at_a], true_entry[at_r]))
        order = np.argsort(owner.astype(np.int64) * n + calls, kind="stable")
        calls, owner = calls[order], owner[order]
        heads = np.flatnonzero(np.append(True, owner[1:] != owner[:-1]))
        nth = np.arange(1, len(owner) + 1) - np.repeat(heads, np.diff(np.append(heads, len(owner))))
        final = nth == sole_units[owner]
        death[owner[final]] = calls[final]

    committed = n
    if (death < n).any():
        index = np.arange(n)
        broken = ~right & (death[true_entry] < index)
        broken |= death[first] < index
        found = live[first]
        for m in range(intra_row.shape[1]):
            rows = np.where(skip != m, intra_row[pair, m], sentinel)
            broken |= ~found & (death[rows] < index)
            found |= live[rows]
        if broken.any():
            committed = int(broken.argmax())

    # Commit: q - k is exact, so k unit consumes subtract k at once.
    if committed < n:
        consumes = mutations(committed)
    take = np.where(multi, 0.0, np.minimum(consumes, sole_units))
    quota[np.arange(len(quota)), sole] -= take
    if len(ops_call):
        keep = consumed & (ops_call < committed)
        flat = ops_entry[keep].astype(np.int64) * quota.shape[1] + pick[keep]
        quota.reshape(-1)[:] -= np.bincount(flat, minlength=quota.size)
    stream.skip(int(ends[committed - 1] + draws[committed - 1]))
    return (
        committed,
        chosen[:committed],
        planned[:committed],
        initial_pick[:committed],
        reveal[:committed],
        final_pick[:committed],
    )


def _snapshot_rows(
    index: QuotaIndex, touched: np.ndarray, dc_index: Dict[str, int]
) -> Tuple[List[QuotaEntry], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows for the plan entries among the dense ``slot * key_count +
    key`` codes marked in ``touched``.

    Returns ``(entries, row_of, quota, bucket_dc, bucket_opt)``: the
    entries that exist, each code's row (``len(entries)``, an empty
    sentinel row, where none exists), and per row the quotas and the
    buckets' DC (by ``dc_index``, the scenario's) and option indices,
    padded with empty buckets.  A bucket on a DC ``dc_index`` lacks
    raises :class:`KeyError` with the DC code, as scoring does.
    """
    row_of = np.full(len(touched), -1, dtype=np.int32)
    entries: List[QuotaEntry] = []
    for code in np.flatnonzero(touched).tolist():
        entry = index.entry(*divmod(code, index.key_count))
        if entry is not None:
            row_of[code] = len(entries)
            entries.append(entry)
    row_of[row_of < 0] = len(entries)
    shape = (len(entries) + 1, max((len(entry.keys) for entry in entries), default=1))
    quota = np.zeros(shape)
    bucket_dc = np.zeros(shape, dtype=np.int64)
    bucket_opt = np.zeros(shape, dtype=np.int64)
    for i, entry in enumerate(entries):
        k = len(entry.keys)
        quota[i, :k] = entry.quota
        bucket_dc[i, :k] = [dc_index[dc] for dc, _ in entry.keys]
        bucket_opt[i, :k] = [_OPTION_INDEX[option] for _, option in entry.keys]
    return entries, row_of, quota, bucket_dc, bucket_opt


class TitanNextController:
    """The §6.4 real-time controller over an offline precomputed plan."""

    def __init__(
        self,
        scenario: Scenario,
        plan: OfflinePlan,
        seed: int = 53,
        reduce_configs: bool = True,
    ) -> None:
        """``reduce_configs`` selects the planning key: reduced call
        configs (§6.2, the default) or raw call configs (the Table 4
        ablation that inflates migrations)."""
        self.scenario = scenario
        self.plan = plan
        self.rng = np.random.default_rng(seed)
        self.reduce_configs = reduce_configs
        self.stats = ControllerStats()
        #: Most recently used planning config per country ("we pick the
        #: most recently used reduced call config based on the country
        #: of the first joiner", §6.4).
        self._recent_config: Dict[str, CallConfig] = {}
        #: Tentative quota consumption per in-flight call: the guessed
        #: config whose plan bucket was sampled at assign time, plus
        #: whether a full unit of quota was actually consumed (a
        #: fractional bucket can be sampled but hold less than one
        #: unit; refunding it anyway would mint quota from nothing).
        self._pending: Dict[int, Optional[Tuple[CallConfig, bool]]] = {}
        self._fallback_cache: Dict[str, Tuple[str, str]] = {}
        #: Batch-path state, created on the first ``process_table`` call
        #: and carried across calls so successive tables behave like one
        #: continuous stream: the quota snapshot, the buffered uniform
        #: reader, and the per-country most-recent plan keys.
        self._quota_index: Optional[QuotaIndex] = None
        self._uniform_stream: Optional[_UniformStream] = None
        self._recent_key: Dict[str, int] = {}

    def _plan_key(self, config: CallConfig) -> CallConfig:
        return config.reduced() if self.reduce_configs else config

    def _plan_slot(self, call: Call) -> int:
        return call.start_slot % self.scenario.slots_per_day

    def _fallback_for_country(self, country_code: str) -> Tuple[str, str]:
        """Surge handling: nearest DC with capacity, over the WAN (§6.4)."""
        cached = self._fallback_cache.get(country_code)
        if cached is None:
            country = self.scenario.world.country(country_code)
            candidates = [self.scenario.world.dc(code) for code in self.scenario.dc_codes]
            nearest = self.scenario.world.nearest_dc(country.centroid, candidates)
            cached = (nearest.code, WAN)
            self._fallback_cache[country_code] = cached
        return cached

    def _fallback(self, call: Call) -> Tuple[str, str]:
        return self._fallback_for_country(call.first_joiner_country)

    def assign(self, call: Call) -> Tuple[str, str]:
        """Initial assignment from the first joiner's country only.

        The working guess is the most recently used planning config for
        the first joiner's country (intra-country single-participant
        video before any call has been seen); if its quotas are
        exhausted, intra-country configs of the other media types are
        tried before falling back to nearest-DC-with-capacity (§6.4,
        "handling surge in calls").
        """
        if self._quota_index is not None:
            # The batch path owns the quota snapshot, the per-country
            # recent-config state, and a prefetched uniform buffer;
            # scalar processing after it would double-spend quota and
            # draw from a skipped-ahead stream.  Fail loudly instead.
            raise RuntimeError(
                "cannot mix scalar process() with process_table() on one "
                "controller; use a fresh TitanNextController"
            )
        slot = self._plan_slot(call)
        country = call.first_joiner_country
        guesses = []
        if country in self._recent_config:
            guesses.append(self._recent_config[country])
        for media in GUESS_MEDIA:
            candidate = _intra_country_guess(country, media)
            if candidate not in guesses:
                guesses.append(candidate)
        for guess in guesses:
            choice = self.plan.sample(slot, guess, self.rng)
            if choice is not None:
                dc, option = choice
                consumed = self.plan.consume(slot, guess, dc, option)
                self._pending[call.call_id] = (guess, consumed)
                return dc, option
        self.stats.unplanned += 1
        self._pending[call.call_id] = None
        return self._fallback(call)

    def reveal(self, call: Call, initial: Tuple[str, str]) -> CallAssignment:
        """Reconcile once the true (reduced) config is known (~5 min in).

        The quota consumed at assign time was charged against the
        *guessed* config.  If the guess was right (the common case:
        intra-country calls reduce to the guessed single-participant
        config), accounting is already correct and the call stays put.
        Otherwise the tentative quota is refunded and the call follows
        the true config's plan — migrating if that lands elsewhere.
        """
        slot = self._plan_slot(call)
        true_reduced = self._plan_key(call.config)
        self._recent_config[call.first_joiner_country] = true_reduced
        initial_dc, initial_option = initial
        self.stats.calls += 1
        pending = self._pending.pop(call.call_id, None)
        guess, consumed = pending if pending is not None else (None, False)

        if guess == true_reduced:
            # Guessed right: the assign-time consumption was the real one.
            return CallAssignment(call, initial_dc, initial_option, initial_dc, initial_option)
        if consumed:
            # Undo only what was actually decremented: a sampled-but-
            # fractional bucket consumed nothing, so refunding it would
            # inflate the plan's total quota on every wrong guess.
            self.plan.refund(slot, guess, initial_dc, initial_option)

        # The paper's rule: draw the target assignment for the *true*
        # reduced config from the plan (weighted random over its
        # remaining quotas); "if [it] is different than the initial
        # assignment, we migrate the call to the target assignment."
        choice = self.plan.sample(slot, true_reduced, self.rng)
        if choice is None:
            # No plan for this config at all: stay where we are.
            return CallAssignment(call, initial_dc, initial_option, initial_dc, initial_option)
        final_dc, final_option = choice
        self.plan.consume(slot, true_reduced, final_dc, final_option)
        if final_dc != initial_dc:
            self.stats.dc_migrations += 1
        if final_option != initial_option:
            self.stats.option_migrations += 1
        return CallAssignment(call, initial_dc, initial_option, final_dc, final_option)

    def process(self, call: Call) -> CallAssignment:
        """Assign at first join, then reconcile at config reveal."""
        initial = self.assign(call)
        return self.reveal(call, initial)

    def process_table(self, table: CallTable) -> AssignmentBatch:
        """Batch rendition of :meth:`process` over a whole trace table.

        An exact bulk replay: the placements, :class:`ControllerStats`
        and the carried state (quota snapshot, uniform-stream position,
        per-country recent keys) are those of :meth:`process` run call
        by call, bit for bit, from the same uniform stream.

        * **Static paths.**  A call's first guess is the true plan key
          of the previous call from its country (one stable sort by
          country), so given which (slot, key) entries are live — hold
          a bucket above ``QUOTA_EPS`` — each call's path is fixed: the
          first live entry among that guess and the other
          :data:`GUESS_MEDIA` intra-country keys, else the fallback; a
          reveal draw iff the guess was wrong and the true entry is
          live.  Prefix sums of the draw counts place every draw in the
          uniform stream.
        * **Per-entry op chains.**  A wrong guess consumes and refunds
          a unit, which leaves ``q`` bit-identical (``q - 1`` is exact
          for ``1 - QUOTA_EPS <= q < 2**53``), so only right guesses and
          reveals change quotas.  An entry with one live bucket picks
          it whatever the uniform, and after ``k`` consumes holds ``q -
          min(k, J)``; the others are walked by :func:`_chain_picks`.
        * **Rounds.**  Entries only ever empty.  A round replays its
          calls against the round-start liveness and breaks at the
          first call that reads an entry emptied earlier in the round
          (:func:`_replay_round`); the calls before it commit and the
          breaking call opens the next round.  The first round is the
          whole table; after a break rounds restart small and double
          while they commit whole, as in
          :meth:`_CapacityTracker.admit_table`.

        Quota accounting runs on the snapshot, so do not interleave
        with scalar :meth:`process` calls on one controller.  The batch
        indexes ``scenario.dc_codes``: a plan entry the table reads with
        a bucket on any other DC raises :class:`KeyError` with that DC's
        code, the error scoring raises for it.
        """
        n = len(table)
        scenario = self.scenario
        initial_dc = np.zeros(n, dtype=np.int64)
        initial_opt = np.zeros(n, dtype=np.int64)
        final_dc = np.zeros(n, dtype=np.int64)
        final_opt = np.zeros(n, dtype=np.int64)
        if n == 0:
            return AssignmentBatch(
                table, initial_dc, initial_opt, final_dc, final_opt, scenario.dc_codes
            )

        if self._quota_index is None:
            self._quota_index = QuotaIndex(self.plan)
            self._uniform_stream = _UniformStream(self.rng)
        index, stream = self._quota_index, self._uniform_stream
        plan_key = np.asarray(
            [index.key(self._plan_key(c)) for c in table.configs], dtype=np.int32
        )
        codes, country = _table_countries(table)
        country = country.astype(np.int32)
        intra = np.asarray(
            [[index.key(_intra_country_guess(code, media)) for media in GUESS_MEDIA]
             for code in codes],
            dtype=np.int32,
        ).reshape(len(codes), len(GUESS_MEDIA))
        fallback = np.asarray(
            [(scenario.dc_index[dc], _OPTION_INDEX[option])
             for dc, option in map(self._fallback_for_country, codes)],
            dtype=np.int64,
        )
        true_key = plan_key[table.config_idx]
        guess, last = _previous_keys(
            true_key,
            country,
            np.asarray([self._recent_key.get(code, -1) for code in codes], dtype=np.int32),
        )
        for code, key in zip(codes, last.tolist()):
            if key >= 0:
                self._recent_key[code] = key

        # The (slot, key) entries the table can touch, by dense code
        # ``slot * n_keys + key``, snapshotted into the rows of one quota
        # matrix whose last row is an empty sentinel for the rest.
        n_keys, n_codes = index.key_count, len(codes)
        slot = (table.start_slot % scenario.slots_per_day).astype(np.int32)
        touched = np.zeros(scenario.slots_per_day * n_keys, dtype=bool)
        touched[slot * n_keys + true_key] = True
        touched[(slot * n_keys + guess)[guess >= 0]] = True
        pair = slot * n_codes + country
        seen = np.zeros(scenario.slots_per_day * n_codes, dtype=bool)
        seen[pair] = True
        pair_slot, pair_country = np.divmod(np.flatnonzero(seen), n_codes)
        touched[pair_slot[:, None] * n_keys + intra[pair_country]] = True
        entries, row_of, quota, bucket_dc, bucket_opt = _snapshot_rows(
            index, touched, scenario.dc_index
        )

        # Each call's candidates: the row of its first guess, then
        # those of its (slot, country) pair's intra-country keys, less
        # the one equal to the guess (``skip``, -1 for none).
        first = np.where(guess >= 0, row_of[slot * n_keys + guess], len(entries))
        skip = np.full(n, -1, dtype=np.int8)
        for m in range(len(GUESS_MEDIA)):
            skip[intra[country, m] == guess] = m
        intra_row = row_of[np.arange(scenario.slots_per_day)[:, None, None] * n_keys + intra]
        intra_row = intra_row.reshape(-1, len(GUESS_MEDIA))
        true_entry = row_of[slot * n_keys + true_key]
        del slot, country, guess, true_key

        unplanned = 0
        pos, size = 0, n
        while pos < n:
            cut = min(pos + size, n)
            done, chosen, planned, initial_pick, revealed, final_pick = _replay_round(
                first[pos:cut], pair[pos:cut], skip[pos:cut], intra_row, true_entry[pos:cut],
                quota, stream,
            )
            rows = slice(pos, pos + done)
            flat = chosen.astype(np.intp) * quota.shape[1] + initial_pick
            np.take(bucket_dc, flat, out=initial_dc[rows], mode="clip")
            np.take(bucket_opt, flat, out=initial_opt[rows], mode="clip")
            surge = pos + np.flatnonzero(~planned)
            initial_dc[surge], initial_opt[surge] = fallback[pair[surge] % n_codes].T
            final_dc[rows] = initial_dc[rows]
            final_opt[rows] = initial_opt[rows]
            moved = np.flatnonzero(revealed)
            flat = true_entry[pos + moved].astype(np.intp) * quota.shape[1] + final_pick[moved]
            final_dc[pos + moved] = bucket_dc.reshape(-1)[flat]
            final_opt[pos + moved] = bucket_opt.reshape(-1)[flat]
            unplanned += done - int(np.count_nonzero(planned))
            pos, size = (pos + done, _FIRST_ROUND) if pos + done < cut else (cut, 2 * size)

        for entry, row in zip(entries, quota):
            entry.quota[:] = row[: len(entry.keys)]
        self.stats.calls += n
        self.stats.dc_migrations += int(np.count_nonzero(initial_dc != final_dc))
        self.stats.option_migrations += int(np.count_nonzero(initial_opt != final_opt))
        self.stats.unplanned += unplanned
        return AssignmentBatch(
            table, initial_dc, initial_opt, final_dc, final_opt, scenario.dc_codes
        )


class FirstJoinerWrr:
    """Capacity-tracked WRR over (DC, option) buckets (§8.1(1))."""

    name = "wrr"

    def __init__(self, scenario: Scenario, seed: int = 59) -> None:
        self.scenario = scenario
        self.rng = np.random.default_rng(seed)
        self.tracker = _CapacityTracker(scenario)
        self.stats = ControllerStats()
        self._bucket_cache: Dict[str, Tuple[List[Tuple[str, str]], np.ndarray]] = {}

    def _buckets(self, country: str) -> Tuple[List[Tuple[str, str]], np.ndarray]:
        """WRR buckets for a country: (dc, option) keys + weights."""
        cached = self._bucket_cache.get(country)
        if cached is None:
            total_cores = sum(self.scenario.compute_caps[dc] for dc in self.scenario.dc_codes)
            keys: List[Tuple[str, str]] = []
            weights: List[float] = []
            for dc in self.scenario.dc_codes:
                # No compute anywhere: every weight is 0, every key ties
                # at -inf, so the order is the bucket list's own, and
                # every call overflows.
                share = self.scenario.compute_caps[dc] / total_cores if total_cores else 0.0
                fraction = self.scenario.internet_fraction(country, dc)
                if fraction > 0:
                    keys.append((dc, INTERNET))
                    weights.append(share * fraction)
                keys.append((dc, WAN))
                weights.append(share * (1.0 - fraction))
            cached = (keys, np.asarray(weights))
            self._bucket_cache[country] = cached
        return cached

    def process(self, call: Call) -> CallAssignment:
        self.stats.calls += 1
        keys, weights = self._buckets(call.first_joiner_country)
        order = weighted_shuffle_order(self.rng.random(len(keys)), weights)
        cores = call.config.compute_cores()
        for idx in order:
            dc, option = keys[idx]
            if not self.tracker.compute_headroom(dc, call.start_slot, cores):
                continue
            if option == INTERNET and not self.tracker.internet_headroom(
                call.config, dc, call.start_slot
            ):
                continue
            self.tracker.admit(call.config, dc, option, call)
            return CallAssignment(call, dc, option, dc, option)
        # Everything full: overflow onto the first bucket's WAN.
        self.stats.unplanned += 1
        dc = keys[0][0]
        self.tracker.admit(call.config, dc, WAN, call)
        return CallAssignment(call, dc, WAN, dc, WAN)

    def process_table(self, table: CallTable) -> AssignmentBatch:
        """Batch WRR: one uniform block, turned run by run into each
        call's Efraimidis–Spirakis keys, then the tracker's exact bulk
        admission.  Stream- and float-identical to :meth:`process` call
        for call."""
        n = len(table)
        tracker = self.tracker
        dc_codes = tuple(tracker.dc_codes)
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return AssignmentBatch(table, empty, empty, empty, empty, dc_codes)

        codes, country_of_call = _table_countries(table)
        per_country = [self._buckets(code) for code in codes]
        ids = tracker.bucket_matrix([keys for keys, _ in per_country])
        # Weight 0 past a country's buckets: key -inf, after every real
        # bucket (ties go to the lower column), on an end marker.
        weights = np.zeros(ids.shape)
        for c, (_, w) in enumerate(per_country):
            weights[c, : len(w)] = w
        offsets = np.zeros(n + 1, dtype=np.int64)
        bucket_count = np.asarray([len(keys) for keys, _ in per_country], dtype=np.int64)
        np.cumsum(bucket_count[country_of_call], out=offsets[1:])
        # The calls' uniforms, then a row's width of padding to read past
        # the last call's.
        uniforms = np.empty(int(offsets[-1]) + ids.shape[1])
        self.rng.random(out=uniforms[: offsets[-1]])
        uniforms[offsets[-1] :] = 0.5
        windows = np.lib.stride_tricks.sliding_window_view(uniforms, ids.shape[1])

        def keys(lo: int, hi: int) -> np.ndarray:
            """The bits of the keys ``log(u)/w`` of calls ``lo..hi-1``.
            Every key is negative or -inf, and the bits of negative
            doubles, read as int64, order them in reverse: the lowest
            bits are the highest key."""
            with np.errstate(divide="ignore"):
                logs = np.log(windows[offsets[lo:hi]])
                return (logs / np.take(weights, country_of_call[lo:hi], axis=0)).view(np.int64)

        # Every country's first key is on the first DC: the overflow DC.
        initial_dc, option_idx, unplanned = tracker.admit_table(
            table, ids, country_of_call, tracker.dc_index[self.scenario.dc_codes[0]], keys
        )
        self.stats.calls += n
        self.stats.unplanned += unplanned
        return AssignmentBatch(
            table, initial_dc, option_idx, initial_dc.copy(), option_idx.copy(), dc_codes
        )


class FirstJoinerLf:
    """Latency-sorted buckets, first with capacity (§8.1(2))."""

    name = "lf"

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.tracker = _CapacityTracker(scenario)
        self.stats = ControllerStats()
        self._bucket_cache: Dict[str, List[Tuple[str, str]]] = {}

    def _sorted_buckets(self, country: str) -> List[Tuple[str, str]]:
        cached = self._bucket_cache.get(country)
        if cached is None:
            buckets = []
            for dc in self.scenario.dc_codes:
                buckets.append(((dc, WAN), self.scenario.one_way_ms(country, dc, WAN)))
                if self.scenario.internet_fraction(country, dc) > 0:
                    buckets.append(
                        ((dc, INTERNET), self.scenario.one_way_ms(country, dc, INTERNET))
                    )
            buckets.sort(key=lambda kv: kv[1])
            cached = [key for key, _ in buckets]
            self._bucket_cache[country] = cached
        return cached

    def process(self, call: Call) -> CallAssignment:
        self.stats.calls += 1
        cores = call.config.compute_cores()
        for dc, option in self._sorted_buckets(call.first_joiner_country):
            if not self.tracker.compute_headroom(dc, call.start_slot, cores):
                continue
            if option == INTERNET and not self.tracker.internet_headroom(
                call.config, dc, call.start_slot
            ):
                continue
            self.tracker.admit(call.config, dc, option, call)
            return CallAssignment(call, dc, option, dc, option)
        self.stats.unplanned += 1
        dc = self.scenario.dc_codes[0]
        self.tracker.admit(call.config, dc, WAN, call)
        return CallAssignment(call, dc, WAN, dc, WAN)

    def process_table(self, table: CallTable) -> AssignmentBatch:
        """Batch LF: cached latency-sorted buckets per country, then the
        tracker's exact bulk admission (LF draws no randomness).
        Identical to :meth:`process` call for call."""
        n = len(table)
        tracker = self.tracker
        dc_codes = tuple(tracker.dc_codes)
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return AssignmentBatch(table, empty, empty, empty, empty, dc_codes)

        codes, country_of_call = _table_countries(table)
        orders = tracker.bucket_matrix([self._sorted_buckets(code) for code in codes])
        initial_dc, option_idx, unplanned = tracker.admit_table(
            table, orders, country_of_call, tracker.dc_index[self.scenario.dc_codes[0]]
        )
        self.stats.calls += n
        self.stats.unplanned += unplanned
        return AssignmentBatch(
            table, initial_dc, option_idx, initial_dc.copy(), option_idx.copy(), dc_codes
        )


class FirstJoinerTitan:
    """Weighted-random DC by cores, random routing by fraction (§8.1(3))."""

    name = "titan"

    def __init__(self, scenario: Scenario, seed: int = 61) -> None:
        self.scenario = scenario
        self.rng = np.random.default_rng(seed)
        self.stats = ControllerStats()
        # Equal shares when the fleet has no compute (Scenario.compute_shares).
        self._cum_probs = np.cumsum(scenario.compute_shares())

    def _pick_dc(self, u: float) -> int:
        return int(
            np.minimum(
                np.searchsorted(self._cum_probs, u, side="right"),
                len(self._cum_probs) - 1,
            )
        )

    def process(self, call: Call) -> CallAssignment:
        self.stats.calls += 1
        scenario = self.scenario
        dc = scenario.dc_codes[self._pick_dc(self.rng.random())]
        fraction = scenario.internet_fraction(call.first_joiner_country, dc)
        option = INTERNET if self.rng.random() < fraction else WAN
        return CallAssignment(call, dc, option, dc, option)

    def process_table(self, table: CallTable) -> AssignmentBatch:
        """Batch Titan: fully vectorized — one uniform block, one
        ``searchsorted`` for the DC draws, one fraction-table gather
        for the routing draws.  Identical to :meth:`process` call for
        call (Titan is stateless)."""
        n = len(table)
        scenario = self.scenario
        dc_codes = tuple(scenario.dc_codes)
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return AssignmentBatch(table, empty, empty, empty, empty, dc_codes)
        codes, country_of_call = _table_countries(table)
        uniforms = self.rng.random(2 * n)
        dc_idx = np.minimum(
            np.searchsorted(self._cum_probs, uniforms[0::2], side="right"),
            len(dc_codes) - 1,
        ).astype(np.int64)
        fractions = np.asarray(
            [[scenario.internet_fraction(code, dc) for dc in dc_codes] for code in codes]
        )
        option_idx = (uniforms[1::2] < fractions[country_of_call, dc_idx]).astype(np.int64)
        self.stats.calls += n
        return AssignmentBatch(
            table, dc_idx, option_idx, dc_idx.copy(), option_idx.copy(), dc_codes
        )
