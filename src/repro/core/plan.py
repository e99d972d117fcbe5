"""The offline precomputed assignment plan (§6.1(4)).

The LP's solution is a fractional assignment table; the plan turns it
into per-(slot, reduced config) quotas over (DC, routing option) pairs.
The online controller consumes quotas with weighted-random selection
("we then use all the counts for each assignment ... as weights and use
weighted random to pick the assignment", §6.4).

Two access paths read the same quotas:

* :class:`OfflinePlan` — the dict-backed scalar reference: per-call
  :meth:`OfflinePlan.sample` draws with :func:`weighted_pick`, which the
  scalar controller path and the tests use;
* :class:`QuotaIndex` — an indexed snapshot of the same plan
  ((slot, interned config) → bucket/quota arrays) for the batch
  controller, whose bulk replay reproduces :func:`weighted_pick`'s float
  arithmetic on the identical uniform stream and therefore picks the
  identical buckets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, ItemsView, List, Optional, Sequence, Tuple

import numpy as np

from ..workload.configs import CallConfig
from .lp import ASSIGNMENT_EPS, COLUMN_OPTIONS, AssignmentTable, LpArtifacts

#: Quotas at or below this are treated as exhausted when sampling.
QUOTA_EPS = 1e-9


def weighted_pick(weights: Sequence[float], u: float) -> int:
    """Inverse-CDF draw over ``weights`` from one uniform.

    The scalar path's primitive; the batch controller reproduces its
    float arithmetic (running sums in bucket order, ``target = u *
    total``, the first ``target < cumulative``, else the last bucket)
    on the same (weights, uniform) pairs, so both pick the same
    bucket.  ``weights`` must be non-empty and positive;
    the caller filters exhausted buckets first (and skips the uniform
    entirely when none remain, keeping the stream aligned).
    """
    total = 0.0
    cumulative = []
    for w in weights:
        total += w
        cumulative.append(total)
    target = u * total
    for i, c in enumerate(cumulative):
        if target < c:
            return i
    return len(cumulative) - 1


@dataclass
class PlanEntry:
    """Quotas for one (slot, reduced config)."""

    buckets: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.buckets.values())

    def weights(self) -> List[Tuple[Tuple[str, str], float]]:
        return sorted(self.buckets.items())


class OfflinePlan:
    """Precomputed (slot, reduced config) → (DC, option) quota table."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, CallConfig], PlanEntry] = {}

    @classmethod
    def from_assignment(cls, assignment: AssignmentTable) -> "OfflinePlan":
        plan = cls()
        for (t, config, dc, option), count in assignment.items():
            if count <= 0:
                continue
            entry = plan._entries.setdefault((t, config), PlanEntry())
            key = (dc, option)
            entry.buckets[key] = entry.buckets.get(key, 0.0) + count
        return plan

    @classmethod
    def from_columns(cls, x: np.ndarray, artifacts: LpArtifacts) -> "OfflinePlan":
        """The plan of a planning LP's x column values.

        ``x`` is aligned with ``artifacts`` (one value per x column).
        Equals ``from_assignment`` of the solve's assignment table —
        every column above :data:`~repro.core.lp.ASSIGNMENT_EPS`, each
        entry's buckets in column order — without building the table.
        """
        plan = cls()
        entries = plan._entries
        index = np.flatnonzero(x > ASSIGNMENT_EPS)
        groups, dc_codes = artifacts.groups, artifacts.dc_codes
        for g, dc, opt, count in zip(
            artifacts.col_group[index].tolist(),
            artifacts.col_dc[index].tolist(),
            artifacts.col_opt[index].tolist(),
            x[index].tolist(),
        ):
            entry = entries.get(groups[g])
            if entry is None:
                entry = entries[groups[g]] = PlanEntry()
            entry.buckets[(dc_codes[dc], COLUMN_OPTIONS[opt])] = count
        return plan

    def items(self) -> ItemsView[Tuple[int, CallConfig], PlanEntry]:
        """Every ``((slot, config), entry)`` of the plan, in plan order."""
        return self._entries.items()

    def entry(self, slot: int, config: CallConfig) -> Optional[PlanEntry]:
        return self._entries.get((slot, config))

    def configs_for_slot(self, slot: int) -> List[CallConfig]:
        return [c for (t, c) in self._entries if t == slot]

    def has_plan(self, slot: int, config: CallConfig) -> bool:
        return (slot, config) in self._entries

    def sample(
        self, slot: int, config: CallConfig, rng: np.random.Generator
    ) -> Optional[Tuple[str, str]]:
        """Weighted-random (DC, option) draw from remaining quotas.

        Draws exactly one uniform from ``rng`` — and none at all when
        every bucket is exhausted — so the batch path can replay the
        stream draw for draw.
        """
        entry = self._entries.get((slot, config))
        if entry is None:
            return None
        buckets = [(key, w) for key, w in entry.weights() if w > QUOTA_EPS]
        if not buckets:
            return None
        pick = weighted_pick([w for _, w in buckets], float(rng.random()))
        return buckets[pick][0]

    def consume(
        self, slot: int, config: CallConfig, dc: str, option: str, amount: float = 1.0
    ) -> bool:
        """Decrement a bucket's remaining quota; False if exhausted."""
        entry = self._entries.get((slot, config))
        if entry is None:
            return False
        key = (dc, option)
        remaining = entry.buckets.get(key, 0.0)
        if remaining < amount - QUOTA_EPS:
            return False
        entry.buckets[key] = remaining - amount
        return True

    def refund(
        self, slot: int, config: CallConfig, dc: str, option: str, amount: float = 1.0
    ) -> None:
        """Return quota to a bucket (undo a tentative :meth:`consume`)."""
        entry = self._entries.setdefault((slot, config), PlanEntry())
        key = (dc, option)
        entry.buckets[key] = entry.buckets.get(key, 0.0) + amount

    def peek(self, slot: int, config: CallConfig, dc: str, option: str) -> float:
        entry = self._entries.get((slot, config))
        if entry is None:
            return 0.0
        return entry.buckets.get((dc, option), 0.0)


class QuotaEntry:
    """One (slot, config) plan entry as parallel bucket/quota arrays.

    ``keys[i]`` is the ``(dc, option)`` of bucket ``i`` (sorted, the
    same canonical order :meth:`PlanEntry.weights` uses) and
    ``quota[i]`` its remaining quota.  The batch controller leaves
    ``quota`` where the dict path's ``- 1.0`` steps would (``k`` such
    steps are exactly ``- k``), so the quotas — and hence the picks —
    match bitwise.
    """

    __slots__ = ("keys", "quota")

    def __init__(self, keys: Sequence[Tuple[str, str]], quota: Sequence[float]) -> None:
        self.keys: List[Tuple[str, str]] = list(keys)
        self.quota: np.ndarray = np.asarray(quota, dtype=np.float64)


class QuotaIndex:
    """Indexed quota matrix over an :class:`OfflinePlan`.

    Interns plan keys (reduced call configs) to integers via
    :meth:`key` and materializes each touched (slot, key) entry as a
    :class:`QuotaEntry` snapshot on first access.  The batch
    controllers own all quota accounting through this index for the
    duration of a run; mutations are not written back to the source
    plan, so do not interleave indexed and dict-path consumption of
    one plan.
    """

    def __init__(self, plan: OfflinePlan) -> None:
        self._plan = plan
        self._key_index: Dict[CallConfig, int] = {}
        self._key_configs: List[CallConfig] = []
        self._entries: Dict[Tuple[int, int], Optional[QuotaEntry]] = {}

    @property
    def key_count(self) -> int:
        """How many planning configs are interned (keys are ``0..key_count-1``)."""
        return len(self._key_configs)

    def key(self, config: CallConfig) -> int:
        """Intern a planning config, returning its integer key."""
        idx = self._key_index.get(config)
        if idx is None:
            idx = len(self._key_configs)
            self._key_index[config] = idx
            self._key_configs.append(config)
        return idx

    def key_config(self, key: int) -> CallConfig:
        return self._key_configs[key]

    def entry(self, slot: int, key: int) -> Optional[QuotaEntry]:
        """The (slot, key) entry, snapshotted lazily from the plan."""
        cache_key = (slot, key)
        if cache_key in self._entries:
            return self._entries[cache_key]
        source = self._plan.entry(slot, self._key_configs[key])
        if source is None:
            entry: Optional[QuotaEntry] = None
        else:
            items = source.weights()
            entry = QuotaEntry([k for k, _ in items], [w for _, w in items])
        self._entries[cache_key] = entry
        return entry
