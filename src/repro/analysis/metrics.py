"""Evaluation metrics (§7.1).

Every policy's output is an assignment table; this module turns it into
the four metrics the paper reports:

(a) **sum of peak WAN bandwidth** — per-link peak over the horizon,
    summed across links (the quantity the operator is billed on);
(b) **total WAN traffic** — load summed over links *and* slots;
(c) **E2E latency** — per-call max end-to-end latency statistics;
(d) **call migrations** — counted by the online controller
    (:mod:`repro.core.controller`), not here.

:func:`evaluate_batch` scores an
:class:`~repro.core.controller.AssignmentBatch` straight off its
parallel arrays (one ``np.unique`` group-by), or an assignment table
converted to the same row arrays, using the dense coefficient tables
cached on the :class:`~repro.core.scenario.Scenario`
(:meth:`~repro.core.scenario.Scenario.eval_tables`) and one scatter over
the CSR link incidence.  ``tests/scalar_reference.py`` scores a table
entry by entry, as the oracle it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..net.latency import INTERNET, WAN
from ..workload.configs import CallConfig
from .stats import weighted_percentile

#: Option order of the batch scorer's row arrays (matches
#: ``Scenario.eval_tables`` / ``EVAL_OPTION_ORDER``).
_OPTION_INDEX: Dict[str, int] = {WAN: 0, INTERNET: 1}


class LoadMatrix:
    """WAN link loads (Gbps) on a dense ``(link, slot)`` grid.

    The mapping-style :meth:`add` API (and the legacy ``loads`` dict
    view) is kept for scalar writers, but the backend is a dense
    ndarray that grows on demand — so the §7.1 reductions
    (:meth:`sum_of_peaks`, :meth:`total_traffic`, :meth:`link_peak`,
    :meth:`slot_load`) are single vectorized reductions, and batch
    evaluators can scatter whole load arrays in via :meth:`from_dense`.
    """

    __slots__ = ("_dense",)

    def __init__(self, loads: Optional[Mapping[Tuple[int, int], float]] = None) -> None:
        self._dense = np.zeros((0, 0))
        if loads:
            for (link_idx, slot), gbps in loads.items():
                self.add(link_idx, slot, gbps)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "LoadMatrix":
        """Wrap a ``(links, slots)`` load array directly (no copy)."""
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2:
            raise ValueError("dense load matrix must be 2-D (links, slots)")
        matrix = cls()
        matrix._dense = dense
        return matrix

    @property
    def dense(self) -> np.ndarray:
        """The backing ``(links, slots)`` array (a view, not a copy)."""
        return self._dense

    @property
    def shape(self) -> Tuple[int, int]:
        return self._dense.shape

    @property
    def loads(self) -> Dict[Tuple[int, int], float]:
        """Nonzero entries as the legacy ``{(link, slot): Gbps}`` dict."""
        links, slots = np.nonzero(self._dense)
        return {
            (int(li), int(s)): float(self._dense[li, s]) for li, s in zip(links, slots)
        }

    def add(self, link_idx: int, slot: int, gbps: float) -> None:
        if link_idx < 0 or slot < 0:
            raise ValueError("link and slot indices must be non-negative")
        rows, cols = self._dense.shape
        if link_idx >= rows or slot >= cols:
            grown = np.zeros((max(rows, link_idx + 1), max(cols, slot + 1)))
            grown[:rows, :cols] = self._dense
            self._dense = grown
        self._dense[link_idx, slot] += gbps

    def link_peak(self, link_idx: int) -> float:
        if not 0 <= link_idx < self._dense.shape[0] or self._dense.shape[1] == 0:
            return 0.0
        return float(self._dense[link_idx].max())

    def sum_of_peaks(self) -> float:
        if self._dense.size == 0:
            return 0.0
        return float(self._dense.max(axis=1).sum())

    def total_traffic(self) -> float:
        return float(self._dense.sum())

    def slot_load(self, slot: int) -> float:
        if not 0 <= slot < self._dense.shape[1]:
            return 0.0
        return float(self._dense[:, slot].sum())


def _empty_samples() -> np.ndarray:
    return np.zeros(0)


@dataclass
class EvaluationResult:
    """All §7.1 metrics for one policy run.

    Latency statistics are carried as parallel ``(value, weight)``
    arrays — one entry per distinct (slot, config, DC, option) row,
    weighted by its call count — rather than per-call sample lists.
    """

    policy: str
    wan: LoadMatrix
    #: Internet load per ((country, dc), slot), Gbps.
    internet_loads: Dict[Tuple[Tuple[str, str], int], float]
    #: Max-E2E latency (ms) per distinct assignment row.
    e2e_values: np.ndarray = field(default_factory=_empty_samples)
    #: Call-count weight of each latency value.
    e2e_weights: np.ndarray = field(default_factory=_empty_samples)
    total_calls: float = 0.0
    #: Total WAN participant traffic (not per-link), the denominator
    #: counterpart of ``internet_loads`` in :attr:`internet_share`.
    wan_edge_traffic: float = 0.0

    @property
    def sum_of_peaks_gbps(self) -> float:
        return self.wan.sum_of_peaks()

    @property
    def total_wan_traffic(self) -> float:
        return self.wan.total_traffic()

    @property
    def internet_share(self) -> float:
        """Fraction of participant bandwidth carried by the Internet."""
        internet = sum(self.internet_loads.values())
        total = internet + self.wan_edge_traffic
        return internet / total if total > 0 else 0.0

    def mean_e2e_ms(self) -> float:
        if self.e2e_values.size == 0:
            return 0.0
        return float(np.average(self.e2e_values, weights=self.e2e_weights))

    def median_e2e_ms(self) -> float:
        return self.percentile_e2e_ms(50.0)

    def percentile_e2e_ms(self, q: float) -> float:
        if self.e2e_values.size == 0:
            return 0.0
        return weighted_percentile(self.e2e_values, self.e2e_weights, q)


def realized_assignment_table(
    batch, slots_per_day: int
) -> Dict[Tuple[int, CallConfig, str, str], float]:
    """Aggregate an ``AssignmentBatch`` into an assignment table.

    One ``np.unique`` group-by over the batch's parallel arrays
    replaces the per-call dict accumulation: rows are
    ``(slot-of-day, config, final DC, final option)`` with call
    counts as values — exactly what the per-call loop over
    ``CallAssignment`` views would build, so oracle- and
    prediction-mode results can be scored as the same kind of table.
    """
    table: Dict[Tuple[int, CallConfig, str, str], float] = {}
    if not len(batch):
        return table
    calls = batch.table
    rows = np.stack(
        [
            np.remainder(calls.start_slot, slots_per_day, dtype=np.int64),
            calls.config_idx,
            batch.final_dc_idx,
            batch.final_option_idx,
        ],
        axis=1,
    )
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    for (t, ci, di, oi), n in zip(uniq, counts):
        key = (
            int(t),
            calls.configs[int(ci)],
            batch.dc_codes[int(di)],
            batch.options[int(oi)],
        )
        # np.unique rows are distinct and configs/DCs/options are
        # interned unique, so each key appears exactly once.
        table[key] = float(n)
    return table


def evaluate_batch(
    scenario,
    assignments,
    policy_name: str = "",
    slots_per_day: Optional[int] = None,
) -> EvaluationResult:
    """Vectorized §7.1 scoring of a batch or an assignment table.

    ``assignments`` is either an
    :class:`~repro.core.controller.AssignmentBatch` (scored straight
    off its parallel arrays: one ``np.unique`` group-by over
    (slot-of-day, config, final DC, final option), folding absolute
    slots by ``slots_per_day`` — default ``scenario.slots_per_day`` —
    like :func:`realized_assignment_table`) or a plain assignment
    table mapping (whose slot keys are used as-is).  Either way the
    distinct rows are scored against the scenario's cached dense
    coefficient tables, WAN loads scatter-add onto the dense
    (link, slot) grid in one ``np.add.at`` over the CSR link
    incidence.  The evaluator recomputes loads from the assignment
    itself (it does not trust LP peak variables), so LP-based and
    heuristic policies are scored identically.
    """
    if isinstance(assignments, Mapping):
        rows = _rows_from_table(scenario, assignments)
    else:
        rows = _rows_from_batch(scenario, assignments, slots_per_day)
    return _evaluate_rows(scenario, *rows, policy_name=policy_name)


def _rows_from_table(scenario, assignment: Mapping[Tuple[int, CallConfig, str, str], float]):
    """Assignment-table rows as (configs, slot, config, dc, option, count).

    Configs are interned by object identity (``CallConfig`` hashing is
    not cached, and tables reuse one instance per distinct config), so
    the conversion is a cheap single pass; aliased-but-equal instances
    merely produce extra rows, which the scorer aggregates anyway.
    """
    config_index: Dict[int, int] = {}
    configs: List[CallConfig] = []
    slots: List[int] = []
    cfgs: List[int] = []
    dcs: List[int] = []
    opts: List[int] = []
    counts: List[float] = []
    dc_index = scenario.dc_index
    for (t, config, dc, option), count in assignment.items():
        if count <= 0:
            continue
        # Transient per-call intern: `configs` pins every keyed object
        # for the dict's whole lifetime, so ids cannot be recycled.
        ci = config_index.get(id(config))  # reprolint: disable=REP002
        if ci is None:
            ci = config_index[id(config)] = len(configs)  # reprolint: disable=REP002
            configs.append(config)
        slots.append(t)
        cfgs.append(ci)
        dcs.append(dc_index[dc])
        opts.append(_OPTION_INDEX[option])
        counts.append(count)
    return (
        tuple(configs),
        np.asarray(slots, dtype=np.int64),
        np.asarray(cfgs, dtype=np.int64),
        np.asarray(dcs, dtype=np.int64),
        np.asarray(opts, dtype=np.int64),
        np.asarray(counts, dtype=float),
    )


def _rows_from_batch(scenario, batch, slots_per_day: Optional[int]):
    """Distinct ``AssignmentBatch`` rows via one ``np.unique`` group-by.

    The (slot, config, dc, option) rows are packed into one int64 key
    per call — a 1-D ``np.unique`` is several times faster than the
    row-wise (``axis=0``) variant on these widths.  The batch's and the
    table's columns are narrow (:func:`~repro.workload.traces.index_dtype`),
    so the key is built from the slot widened to int64: every product
    and sum after it is int64 too.  The returned index arrays are int64
    and the counts float64.
    """
    table = batch.table
    if not len(batch):
        empty = np.zeros(0, dtype=np.int64)
        return table.configs, empty, empty, empty, empty, np.zeros(0)
    fold = slots_per_day if slots_per_day is not None else scenario.slots_per_day
    slots = np.remainder(table.start_slot, fold, dtype=np.int64)
    n_cfg = len(table.configs)
    n_dc = len(batch.dc_codes)
    n_opt = len(batch.options)
    packed = (
        (slots * n_cfg + table.config_idx) * n_dc + batch.final_dc_idx
    ) * n_opt + batch.final_option_idx
    keys, counts = np.unique(packed, return_counts=True)
    keys, opt = np.divmod(keys, n_opt)
    keys, dc = np.divmod(keys, n_dc)
    slot, cfg = np.divmod(keys, n_cfg)
    # The batch's DC/option interning may differ from the scenario's
    # canonical order; remap through lookup arrays.
    dc_map = np.asarray([scenario.dc_index[d] for d in batch.dc_codes], dtype=np.int64)
    opt_map = np.asarray([_OPTION_INDEX[o] for o in batch.options], dtype=np.int64)
    return table.configs, slot, cfg, dc_map[dc], opt_map[opt], counts.astype(float)


def _csr_offsets(deg: np.ndarray) -> np.ndarray:
    """``[0..deg[0]), [0..deg[1)), ...`` concatenated as one array."""
    total = int(deg.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    return np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(deg) - deg, deg)


def _evaluate_rows(
    scenario,
    configs: Tuple[CallConfig, ...],
    slot: np.ndarray,
    cfg: np.ndarray,
    dc: np.ndarray,
    opt: np.ndarray,
    counts: np.ndarray,
    policy_name: str = "",
) -> EvaluationResult:
    """Score distinct (slot, config, dc, option) rows on dense arrays."""
    if counts.size == 0:
        return EvaluationResult(policy=policy_name, wan=LoadMatrix(), internet_loads={})
    tables = scenario.eval_tables(configs)
    e2e_values = tables.e2e_ms[cfg, dc, opt]

    # Expand each row into its config's (country, bandwidth) entries.
    deg = tables.part_ptr[cfg + 1] - tables.part_ptr[cfg]
    row = np.repeat(np.arange(counts.size), deg)
    entry = np.repeat(tables.part_ptr[cfg], deg) + _csr_offsets(deg)
    country = tables.part_country[entry]
    bw = tables.part_bw[entry] * counts[row]
    dc_r, slot_r = dc[row], slot[row]
    wan_mask = opt[row] == _OPTION_INDEX[WAN]

    # WAN side: scatter every (entry, incident link) load in one
    # bincount over flattened (link, slot) ids.
    n_slots = int(slot.max()) + 1
    n_links = scenario.wan_link_count
    wan_edge = float(bw[wan_mask].sum())
    if wan_mask.any():
        ptr, flat = scenario.link_incidence_csr()
        pair = country[wan_mask] * len(scenario.dc_codes) + dc_r[wan_mask]
        ldeg = ptr[pair + 1] - ptr[pair]
        lrow = np.repeat(np.arange(pair.size), ldeg)
        link = flat[np.repeat(ptr[pair], ldeg) + _csr_offsets(ldeg)]
        dense = np.bincount(
            link * n_slots + slot_r[wan_mask][lrow],
            weights=bw[wan_mask][lrow],
            minlength=n_links * n_slots,
        ).reshape(n_links, n_slots)
    else:
        dense = np.zeros((n_links, n_slots))

    # Internet side: group (country, dc, slot) by packed int key and
    # emit the legacy dict.
    internet_loads: Dict[Tuple[Tuple[str, str], int], float] = {}
    net_mask = ~wan_mask
    if net_mask.any():
        n_dc = len(scenario.dc_codes)
        packed = (country[net_mask] * n_dc + dc_r[net_mask]) * n_slots + slot_r[net_mask]
        sums = np.bincount(packed, weights=bw[net_mask])
        keys = np.nonzero(sums)[0]
        pairs, slots_net = np.divmod(keys, n_slots)
        countries_net, dcs_net = np.divmod(pairs, n_dc)
        country_codes = scenario.country_codes
        dc_codes = scenario.dc_codes
        for c, d, s, value in zip(countries_net, dcs_net, slots_net, sums[keys]):
            internet_loads[((country_codes[c], dc_codes[d]), int(s))] = float(value)

    return EvaluationResult(
        policy=policy_name,
        wan=LoadMatrix.from_dense(dense),
        internet_loads=internet_loads,
        e2e_values=e2e_values,
        e2e_weights=counts.astype(float),
        total_calls=float(counts.sum()),
        wan_edge_traffic=wan_edge,
    )


def normalize_to(results: Mapping[str, float], reference: str) -> Dict[str, float]:
    """Normalize a {policy: value} map to one policy's value (Fig 14/15)."""
    if reference not in results:
        raise KeyError(f"reference policy {reference!r} missing")
    ref = results[reference]
    if ref <= 0:
        raise ValueError("reference value must be positive")
    return {name: value / ref for name, value in results.items()}


def savings_vs(results: Mapping[str, float], reference: str) -> Dict[str, float]:
    """Relative savings of each policy against a reference policy."""
    normalized = normalize_to(results, reference)
    return {name: 1.0 - value for name, value in normalized.items()}
