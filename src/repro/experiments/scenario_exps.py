"""Scenario-zoo experiments: the §7/§8 comparison per topology.

One experiment per registered scenario (``scenario-americas``,
``scenario-apac``, ``scenario-emea``, ``scenario-global``): build the
RTT-calibrated setup, run a §7 oracle day and a §8 prediction day, and
report the normalized sum-of-peaks plus the controller's migration
stats — the same quantities Figs 14/15 report for the Europe box, now
per topology.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.metrics import normalize_to
from ..core.titan_next import EuropeSetup, run_oracle_day, run_prediction_day
from ..scenarios import (
    RTT_SOURCE,
    SCENARIO_SPECS,
    build_scenario,
    default_rtt_fit,
)
from .base import ExperimentResult


def run_scenario_comparison(
    name: str,
    setup: Optional[EuropeSetup] = None,
    oracle_day: int = 2,
    prediction_day: int = 30,
    daily_calls: float = 4_000.0,
    top_n_configs: int = 50,
) -> ExperimentResult:
    """§7 + §8 on one zoo scenario (the ``scenario-*`` registry ids)."""
    spec = SCENARIO_SPECS[name]
    if setup is None:
        setup = build_scenario(name, daily_calls=daily_calls, top_n_configs=top_n_configs)

    oracle = run_oracle_day(setup, day=oracle_day)
    peaks = {policy: r.sum_of_peaks_gbps for policy, r in oracle.items()}
    normalized = normalize_to(peaks, "wrr")

    predicted = run_prediction_day(setup, day=prediction_day)
    pred_peaks = {
        policy: r.evaluate(setup.scenario).sum_of_peaks_gbps for policy, r in predicted.items()
    }
    pred_normalized = normalize_to(pred_peaks, "wrr")
    stats = predicted["titan-next"].stats
    assert stats is not None

    fit = default_rtt_fit()
    covered = [e for e in fit.entries if not e.clamped]
    return ExperimentResult(
        experiment_id=f"scenario-{name}",
        title=f"Scenario zoo: {spec.description}",
        measured={
            "countries": len(setup.scenario.country_codes),
            "dcs": len(setup.scenario.dc_codes),
            "wan_links": setup.scenario.wan_link_count,
            "oracle_normalized_peaks": {k: round(v, 3) for k, v in normalized.items()},
            "prediction_normalized_peaks": {k: round(v, 3) for k, v in pred_normalized.items()},
            "tn_dc_migration_rate": round(stats.dc_migration_rate, 4),
            "tn_unplanned_rate": round(stats.unplanned_rate, 4),
            "rtt_calibrated_pairs": len(covered),
            "rtt_max_residual_ms": round(fit.max_unclamped_residual_ms, 3),
        },
        paper={
            "finding": "Titan-Next's savings generalize beyond the §7.3 Europe slice",
            "rtt_source": RTT_SOURCE,
        },
    )


def run_scenario_americas(**kwargs) -> ExperimentResult:
    return run_scenario_comparison("americas", **kwargs)


def run_scenario_apac(**kwargs) -> ExperimentResult:
    return run_scenario_comparison("apac", **kwargs)


def run_scenario_emea(**kwargs) -> ExperimentResult:
    return run_scenario_comparison("emea", **kwargs)


def run_scenario_global(**kwargs) -> ExperimentResult:
    return run_scenario_comparison("global", **kwargs)
