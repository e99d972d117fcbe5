"""Evaluation scenario: the shared context for all assignment policies.

A scenario bundles the client countries, candidate MP DCs, network
models, Internet capacities (Titan's output), per-DC compute caps, and
the derived coefficient tables every policy needs:

* ``one_way_ms(country, dc, option)`` — participant-to-MP latency;
* ``e2e_latency_ms(config, dc, option)`` — max E2E latency of a config
  (top-two one-way latencies; doubled one-way for intra-country), §5.2;
* ``wan_links(country, dc)`` — backbone links charged by WAN routing;
* bandwidth / compute coefficients from the config's media profile.

The paper's evaluation is intra-Europe (§7.3); :func:`europe_scenario`
builds that default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..geo.world import World
from ..net.latency import INTERNET, WAN, LatencyModel
from ..net.topology import WanLink
from ..workload.configs import CallConfig
from ..workload.demand import SLOTS_PER_DAY, DemandModel
from .capacity import InternetCapacityBook

#: Routing options in evaluation-array index order (0 = WAN, 1 = INTERNET).
EVAL_OPTION_ORDER: Tuple[str, str] = (WAN, INTERNET)


@dataclass(frozen=True)
class ScenarioEvalTables:
    """Dense per-config coefficient tables for batch evaluation (§7.1).

    Everything the vectorized scorer needs, precomputed once per
    (scenario, config universe) pair:

    * ``e2e_ms[config, dc, option]`` — max-E2E latency of a config at a
      (DC, routing option), options in :data:`EVAL_OPTION_ORDER`;
    * participant bandwidth in CSR form over configs: entry ``k`` in
      ``[part_ptr[j], part_ptr[j + 1])`` says config ``j`` contributes
      ``part_bw[k]`` Gbps per call from country ``part_country[k]``
      (an index into ``Scenario.country_codes``; zero-bandwidth
      participants are dropped, matching the scalar evaluator's
      ``bw <= 0`` skip).
    """

    configs: Tuple[CallConfig, ...]
    e2e_ms: np.ndarray
    part_ptr: np.ndarray
    part_country: np.ndarray
    part_bw: np.ndarray


class Scenario:
    """Shared evaluation context for WRR / LF / Titan / Titan-Next."""

    def __init__(
        self,
        world: World,
        latency: LatencyModel,
        country_codes: Sequence[str],
        dc_codes: Sequence[str],
        capacity_book: InternetCapacityBook,
        compute_caps: Optional[Mapping[str, float]] = None,
        slots_per_day: int = SLOTS_PER_DAY,
    ) -> None:
        if not country_codes:
            raise ValueError("scenario needs client countries")
        if not dc_codes:
            raise ValueError("scenario needs MP DCs")
        self.world = world
        self.latency = latency
        self.topology = latency.topology
        self.country_codes = list(country_codes)
        self.dc_codes = list(dc_codes)
        self.capacity_book = capacity_book
        self.slots_per_day = slots_per_day
        for code in self.country_codes:
            world.country(code)
        for code in self.dc_codes:
            world.dc(code)
        if compute_caps is None:
            compute_caps = {code: float(world.dc(code).compute_cores) for code in dc_codes}
        self.compute_caps = dict(compute_caps)

        self.country_index: Dict[str, int] = {c: i for i, c in enumerate(self.country_codes)}
        self.dc_index: Dict[str, int] = {d: i for i, d in enumerate(self.dc_codes)}

        self._one_way: Dict[Tuple[str, str, str], float] = {}
        self._links: Dict[Tuple[str, str], List[WanLink]] = {}
        self._link_index: Dict[FrozenSet[str], int] = {}
        self._all_links: List[WanLink] = []
        self._eval_tables: Dict[Tuple[int, ...], ScenarioEvalTables] = {}
        self._link_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._build_link_table()

    def __getstate__(self):
        """Pickle without the evaluation caches.

        ``_eval_tables`` is keyed on config object *ids*, which are
        meaningless (and collision-prone) in another process — a sweep
        worker must rebuild its own tables, which also keeps the
        payload shipped to each worker small.  ``_link_csr`` is derived
        and rebuilt on demand.
        """
        state = self.__dict__.copy()
        state["_eval_tables"] = {}
        state["_link_csr"] = None
        return state

    # -- links -------------------------------------------------------------

    def _build_link_table(self) -> None:
        for country in self.country_codes:
            for dc in self.dc_codes:
                links = self.topology.wan_path(country, dc)
                self._links[(country, dc)] = links
                for link in links:
                    if link.key not in self._link_index:
                        self._link_index[link.key] = len(self._all_links)
                        self._all_links.append(link)

    @property
    def wan_link_count(self) -> int:
        return len(self._all_links)

    @property
    def wan_links(self) -> List[WanLink]:
        return list(self._all_links)

    def link_indices(self, country_code: str, dc_code: str) -> List[int]:
        """Indices (into ``wan_links``) charged by WAN routing of a pair."""
        return [self._link_index[ln.key] for ln in self._links[(country_code, dc_code)]]

    def link_incidence_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """WAN link incidence as CSR over (country, DC) pair ids.

        Pair id ``country_index * len(dc_codes) + dc_index`` owns the
        link indices ``flat[ptr[pair] : ptr[pair + 1]]`` — the links its
        WAN route is charged on.  Lets a batch evaluator scatter-add all
        WAN loads onto the dense (link, slot) grid in one ``np.add.at``.
        """
        if self._link_csr is None:
            ptr = np.zeros(len(self.country_codes) * len(self.dc_codes) + 1, dtype=np.int64)
            flat: List[int] = []
            pair = 0
            for country in self.country_codes:
                for dc in self.dc_codes:
                    flat.extend(self.link_indices(country, dc))
                    pair += 1
                    ptr[pair] = len(flat)
            self._link_csr = (ptr, np.asarray(flat, dtype=np.int64))
        return self._link_csr

    # -- evaluation tables ---------------------------------------------------

    #: Retained :meth:`eval_tables` entries; a long-lived scenario fed
    #: many distinct per-day config subsets evicts oldest-first.
    EVAL_TABLE_CACHE_SIZE = 64

    def eval_tables(self, configs: Sequence[CallConfig]) -> ScenarioEvalTables:
        """Cached :class:`ScenarioEvalTables` for an interned config tuple.

        Keyed on the config *identities* (``CallConfig`` hashing is not
        cached, and callers reuse interned instances — a
        :class:`~repro.workload.traces.CallTable`'s ``configs``, or one
        demand table's config objects across policies), so repeated
        scoring over one universe builds the coefficient arrays once
        and lookups stay O(n) int hashing.  The cached value keeps the
        config tuple alive, which is what keeps its ids valid as keys.
        """
        # Ids stay valid: the cached value pins the config tuple, and
        # __getstate__ drops the cache before any pickle boundary.
        key = tuple(map(id, configs))  # reprolint: disable=REP002
        tables = self._eval_tables.get(key)
        if tables is None:
            tables = self._build_eval_tables(tuple(configs))
            while len(self._eval_tables) >= self.EVAL_TABLE_CACHE_SIZE:
                self._eval_tables.pop(next(iter(self._eval_tables)))
            self._eval_tables[key] = tables
        return tables

    def _build_eval_tables(self, configs: Tuple[CallConfig, ...]) -> ScenarioEvalTables:
        e2e = np.empty((len(configs), len(self.dc_codes), len(EVAL_OPTION_ORDER)))
        ptr = np.zeros(len(configs) + 1, dtype=np.int64)
        countries: List[int] = []
        bws: List[float] = []
        for j, config in enumerate(configs):
            for d, dc in enumerate(self.dc_codes):
                for o, option in enumerate(EVAL_OPTION_ORDER):
                    e2e[j, d, o] = self.e2e_latency_ms(config, dc, option)
            for country, _ in config.participants:
                bw = config.country_bandwidth_gbps(country)
                if bw <= 0:
                    continue
                index = self.country_index.get(country)
                if index is None:
                    raise KeyError(f"config country {country!r} is not part of the scenario")
                countries.append(index)
                bws.append(bw)
            ptr[j + 1] = len(countries)
        return ScenarioEvalTables(
            configs,
            e2e,
            ptr,
            np.asarray(countries, dtype=np.int64),
            np.asarray(bws, dtype=float),
        )

    # -- latency -------------------------------------------------------------

    def one_way_ms(self, country_code: str, dc_code: str, option: str) -> float:
        key = (country_code, dc_code, option)
        if key not in self._one_way:
            self._one_way[key] = self.latency.one_way_ms(country_code, dc_code, option)
        return self._one_way[key]

    def e2e_latency_ms(self, config: CallConfig, dc_code: str, option: str) -> float:
        """Max end-to-end latency of a config at (DC, option) — §5.2.

        E2E between two participants is the sum of their one-way
        latencies to the MP (Fig 10); the maximum over pairs is the sum
        of the two largest one-ways.  A single-country (reduced) config
        represents a conversation between users of that country, so its
        max E2E is twice the country's one-way latency.
        """
        one_ways: List[float] = []
        for country, count in config.participants:
            latency = self.one_way_ms(country, dc_code, option)
            one_ways.extend([latency] * min(count, 2))
        if len(one_ways) == 1:
            return 2.0 * one_ways[0]
        one_ways.sort(reverse=True)
        return one_ways[0] + one_ways[1]

    def total_latency_ms(self, config: CallConfig, dc_code: str, option: str) -> float:
        """Sum of participant one-way latencies (the LF objective)."""
        return sum(
            self.one_way_ms(country, dc_code, option) * count
            for country, count in config.participants
        )

    # -- capacities -----------------------------------------------------------

    def compute_shares(self) -> List[float]:
        """Each DC's share of the fleet's compute, in ``dc_codes`` order.

        The weighted-random policies (Titan, and the oracle WRR's bucket
        weights) pick DCs by these shares.  A fleet with no compute at
        all (every cap 0) gets equal shares: there is nothing to weigh
        by, and dividing by the zero total would fail.
        """
        caps = [self.compute_caps[dc] for dc in self.dc_codes]
        total = sum(caps)
        if total <= 0:
            return [1.0 / len(caps)] * len(caps)
        return [cap / total for cap in caps]

    def internet_fraction(self, country_code: str, dc_code: str) -> float:
        return self.capacity_book.fraction(country_code, dc_code)

    def internet_cap_gbps(self, country_code: str, dc_code: str) -> float:
        return self.capacity_book.gbps(country_code, dc_code)

    def config_internet_fraction(self, config: CallConfig, dc_code: str) -> float:
        """Internet fraction for a config: the minimum across its
        countries ("we pick the minimum fraction of calls from its
        countries", §7.2)."""
        return min(self.internet_fraction(c, dc_code) for c in config.countries)

    def with_capacity_book(self, book: InternetCapacityBook) -> "Scenario":
        """A copy of this scenario with a different capacity table."""
        return Scenario(
            self.world,
            self.latency,
            self.country_codes,
            self.dc_codes,
            book,
            compute_caps=self.compute_caps,
            slots_per_day=self.slots_per_day,
        )


def calibrate_compute_caps(
    world: World,
    dc_codes: Sequence[str],
    demand: DemandModel,
    headroom: float = 1.4,
    top_n_configs: Optional[int] = None,
) -> Dict[str, float]:
    """Per-DC compute caps sized to the scenario's demand.

    The raw catalog capacities (tens of thousands of cores) would never
    bind for a scaled-down synthetic workload, which would make the LP's
    C2 constraint vacuous.  We size total capacity to ``headroom`` times
    the peak slot's compute requirement, split across DCs in proportion
    to their catalog sizes — mirroring how Teams provisions MPs against
    anticipated demand (§2.2a).  The default absorbs a 3-sigma day
    shock (~1.20x at sigma 0.06) plus peak-slot Poisson noise, so a
    sampled week stays feasible for every policy.
    """
    if headroom <= 1.0:
        raise ValueError("headroom must exceed 1.0")
    items = (
        demand.universe.top(top_n_configs) if top_n_configs is not None else demand.universe.demands
    )
    # Scan a full week so the busiest weekday sets the provisioning bar;
    # headroom then only has to absorb stochastic demand shocks.  One
    # (configs, slots) expectation matrix and a dot product replace the
    # per-(config, slot) scalar scan.
    expected = demand.expected_matrix(0, 7 * SLOTS_PER_DAY, top_n=top_n_configs)
    cores = np.asarray([item.config.compute_cores() for item in items])
    peak_need = float((cores @ expected).max())
    total_catalog = sum(world.dc(code).compute_cores for code in dc_codes)
    caps = {}
    for code in dc_codes:
        share = world.dc(code).compute_cores / total_catalog
        caps[code] = peak_need * headroom * share
    return caps


def estimate_pair_traffic_gbps(
    demand: DemandModel,
    country_codes: Sequence[str],
    dc_codes: Sequence[str],
    top_n_configs: Optional[int] = None,
) -> Dict[Tuple[str, str], float]:
    """Typical per-(country, DC) traffic at the weekly peak slot.

    Titan converts its per-pair offload *fractions* into Gbps capacity
    estimates by multiplying with the pair's typical traffic; this
    helper provides that estimate, assuming traffic splits evenly
    across candidate DCs.
    """
    demands = (
        demand.universe.top(top_n_configs) if top_n_configs is not None else demand.universe.demands
    )
    # Scan a full week (like calibrate_compute_caps above): day 0 may be
    # a low-traffic day, and a day-0-only scan would bias the Gbps
    # estimates — and hence Titan's capacity book and the LP's C3 caps —
    # low whenever weekly seasonality puts the peak elsewhere.  The scan
    # is a (countries, configs) bandwidth table times the expectation
    # matrix; per-country peaks are row maxima.
    expected = demand.expected_matrix(0, 7 * SLOTS_PER_DAY, top_n=top_n_configs)
    country_index = {c: i for i, c in enumerate(country_codes)}
    bandwidth = np.zeros((len(country_codes), len(demands)))
    for j, item in enumerate(demands):
        for country, _ in item.config.participants:
            i = country_index.get(country)
            if i is not None:
                bandwidth[i, j] = item.config.country_bandwidth_gbps(country)
    peak = (bandwidth @ expected).max(axis=1)
    return {
        (country, dc): float(peak[country_index[country]]) / len(dc_codes)
        for country in country_codes
        for dc in dc_codes
    }
