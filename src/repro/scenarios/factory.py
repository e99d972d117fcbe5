"""Named multi-region evaluation scenarios (the scenario zoo).

Everything before this module evaluated on one hand-built intra-Europe
setup (:func:`repro.core.titan_next.build_europe_setup`, the paper's
§7.3 slice) even though the world catalog spans six continents.  The
factory generalizes that construction: each named scenario slices the
catalog by continent, builds the same config universe / demand /
capacity-book / compute-cap pipeline over the slice, and returns the
same :class:`~repro.core.titan_next.EuropeSetup` bundle — so
``SweepRunner``, the plan cache, and the stress layer work on a
zoo scenario exactly as they do on the Europe box.

The zoo's latency model is RTT-calibrated: on top of the Fig 4 richness
table, :func:`repro.scenarios.calibration.fit_rtt_richness` pins every
covered (country, DC) corridor to the published Azure inter-region
medians (:mod:`repro.scenarios.rtt_table`), so cross-ocean paths carry
realistic absolute RTTs, not just the right F-statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.capacity import InternetCapacityBook
from ..core.scenario import Scenario, calibrate_compute_caps, estimate_pair_traffic_gbps
from ..core.titan_next import EuropeSetup
from ..geo.world import Continent, World, default_world, stable_hash
from ..net.latency import LatencyModel, default_richness_calibration
from ..workload.demand import ConfigUniverse, DemandModel
from .calibration import default_rtt_fit, fit_rtt_richness


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative recipe for one named scenario."""

    name: str
    continents: Tuple[Continent, ...]
    description: str


#: The zoo.  ``global`` spans the full 21-DC catalog with cross-ocean
#: WAN links; the regional scenarios carve out contiguous slices.
SCENARIO_SPECS: Dict[str, ScenarioSpec] = {
    "americas": ScenarioSpec(
        "americas",
        ("north-america", "south-america"),
        "North + South America: 5 countries, 9 DCs, trans-equatorial links",
    ),
    "apac": ScenarioSpec(
        "apac",
        ("asia", "oceania"),
        "Asia-Pacific: 5 countries, 6 DCs, long trans-ocean corridors",
    ),
    "emea": ScenarioSpec(
        "emea",
        ("europe", "africa"),
        "Europe + Africa: 23 countries, 6 DCs, the paper's slice plus Africa",
    ),
    "global": ScenarioSpec(
        "global",
        ("north-america", "south-america", "europe", "asia", "africa", "oceania"),
        "All 33 countries against all 21 DCs",
    ),
}


def scenario_names() -> List[str]:
    return list(SCENARIO_SPECS)


def _default_seed(name: str) -> int:
    # Decorrelate scenarios: each name owns its own (deterministic)
    # demand / capacity streams, like build_europe_setup's seed=67.
    return 100 + (stable_hash(f"scenario:{name}") & 0x3FFF)


def build_scenario(
    name: str,
    daily_calls: float = 6_000.0,
    top_n_configs: int = 60,
    internet_fraction: float = 0.18,
    disabled_countries: Sequence[str] = (),
    seed: Optional[int] = None,
    world: Optional[World] = None,
    rtt_calibrated: bool = True,
) -> EuropeSetup:
    """Build one named scenario as an ``EuropeSetup``-shaped bundle.

    Deterministic: the same ``(name, seed)`` (and world) always yields
    an identical scenario — demand streams, capacity book, compute caps,
    and latency calibration included.  ``seed=None`` derives a stable
    per-name default.  ``rtt_calibrated=False`` skips the RTT-table fit
    and falls back to the Fig 4 richness table alone (the ablation
    knob; the fit itself is deterministic and memoized for the default
    world).
    """
    try:
        spec = SCENARIO_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIO_SPECS)}"
        ) from None
    world = world if world is not None else default_world()
    seed = seed if seed is not None else _default_seed(name)

    countries = [c for continent in spec.continents for c in world.countries_in(continent)]
    dc_codes = [d.code for continent in spec.continents for d in world.dcs_in(continent)]
    if not countries or not dc_codes:
        raise ValueError(f"scenario {name!r} selects no countries or no DCs")

    overrides = dict(default_richness_calibration())
    if rtt_calibrated:
        fit = (
            default_rtt_fit()
            if world is default_world()
            else fit_rtt_richness(world=world)
        )
        # The RTT fit wins over the Fig 4 table where both cover a pair:
        # the zoo's contract is absolute RTTs tracking the published
        # medians, and the fit is anchored on exactly those.
        overrides.update(fit.richness)
    latency = LatencyModel(world, richness_overrides=overrides)

    country_codes = [c.code for c in countries]
    universe = ConfigUniverse(countries, seed=seed)
    demand = DemandModel(universe, daily_calls=daily_calls, seed=seed + 1)

    traffic = estimate_pair_traffic_gbps(
        demand, country_codes, dc_codes, top_n_configs=top_n_configs
    )
    book = InternetCapacityBook()
    rng = np.random.default_rng(seed + 2)
    for country in country_codes:
        for dc in dc_codes:
            # Same converged-fraction model as build_europe_setup, with
            # the draw before the disabled check so books are stable
            # under the disabled set.
            fraction = float(min(0.20, max(0.05, rng.normal(internet_fraction, 0.03))))
            if country in disabled_countries:
                book.disable(country, dc)
                continue
            book.set_fraction(country, dc, fraction)
            book.set_gbps(country, dc, fraction * traffic[(country, dc)])

    caps = calibrate_compute_caps(world, dc_codes, demand, top_n_configs=top_n_configs)
    scenario = Scenario(world, latency, country_codes, dc_codes, book, compute_caps=caps)
    return EuropeSetup(world, scenario, universe, demand, top_n_configs, book)


class ScenarioFactory:
    """Named-scenario front end with shared construction defaults.

    A factory holds the knobs every scenario of a sweep should share
    (scale, Internet fraction, world) so callers can iterate the zoo::

        factory = ScenarioFactory(daily_calls=4_000, top_n_configs=50)
        for name in factory.names:
            setup = factory.build(name)
            ...

    ``build`` is a thin, deterministic wrapper over
    :func:`build_scenario`.
    """

    def __init__(
        self,
        daily_calls: float = 6_000.0,
        top_n_configs: int = 60,
        internet_fraction: float = 0.18,
        world: Optional[World] = None,
        rtt_calibrated: bool = True,
    ) -> None:
        self.daily_calls = daily_calls
        self.top_n_configs = top_n_configs
        self.internet_fraction = internet_fraction
        self.world = world
        self.rtt_calibrated = rtt_calibrated

    @property
    def names(self) -> List[str]:
        return scenario_names()

    def spec(self, name: str) -> ScenarioSpec:
        return SCENARIO_SPECS[name]

    def build(
        self,
        name: str,
        seed: Optional[int] = None,
        disabled_countries: Sequence[str] = (),
    ) -> EuropeSetup:
        return build_scenario(
            name,
            daily_calls=self.daily_calls,
            top_n_configs=self.top_n_configs,
            internet_fraction=self.internet_fraction,
            disabled_countries=disabled_countries,
            seed=seed,
            world=self.world,
            rtt_calibrated=self.rtt_calibrated,
        )
