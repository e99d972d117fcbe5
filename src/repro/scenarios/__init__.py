"""Scenario zoo: named, RTT-calibrated multi-region evaluation setups.

* :func:`build_scenario` / :class:`ScenarioFactory` — the named setups
  (``americas``, ``apac``, ``emea``, ``global``), each an
  ``EuropeSetup``-shaped bundle that drops into ``SweepRunner``, the
  plan cache, and the stress layer unchanged;
* :mod:`repro.scenarios.rtt_table` — published Azure inter-region RTT
  medians (the calibration ground truth);
* :mod:`repro.scenarios.calibration` — the fit pass pinning the latency
  model's Internet RTTs to those medians.
"""

from .calibration import (
    RTT_FIT_TOLERANCE_MS,
    RttFit,
    RttFitEntry,
    default_rtt_fit,
    fit_rtt_richness,
)
from .factory import SCENARIO_SPECS, ScenarioFactory, ScenarioSpec, build_scenario, scenario_names
from .rtt_table import AZURE_REGION, RTT_SOURCE, covered_region_pairs, dc_pair_rtt_ms, get_rtt_ms

__all__ = [
    "AZURE_REGION",
    "RTT_FIT_TOLERANCE_MS",
    "RTT_SOURCE",
    "RttFit",
    "RttFitEntry",
    "SCENARIO_SPECS",
    "ScenarioFactory",
    "ScenarioSpec",
    "build_scenario",
    "covered_region_pairs",
    "dc_pair_rtt_ms",
    "default_rtt_fit",
    "fit_rtt_richness",
    "get_rtt_ms",
    "scenario_names",
]
