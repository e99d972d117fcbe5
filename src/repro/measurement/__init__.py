"""Measurement-study substrate (§3): probes, campaign, aggregation."""

from .aggregate import (
    PAPER_DIFF_BUCKETS,
    DiffBuckets,
    continental_diff_cdfs,
    diff_buckets,
    diff_series,
    fraction_f_heatmap,
    global_diff_buckets,
    hourly_medians_from_records,
    longterm_latency_changes,
)
from .calibration import (
    FIG4_COUNTRY_ORDER,
    PAPER_FIG4_F,
    PAPER_FIG19_F,
    fit_richness_overrides,
    measured_fraction_f,
    paper_fraction_f,
    render_calibration_module,
)
from .campaign import CampaignStats, MeasurementCampaign
from .granularity import (
    model_fraction_f,
    model_granularity_summary,
    GRANULARITIES,
    fraction_f_by_group,
    granularity_summary,
    weighted_difference,
)
from .probes import LoadBalancer, ProbeRecord, ProbeSampler, ProbeVm

__all__ = [
    "PAPER_DIFF_BUCKETS",
    "DiffBuckets",
    "continental_diff_cdfs",
    "diff_buckets",
    "diff_series",
    "fraction_f_heatmap",
    "global_diff_buckets",
    "hourly_medians_from_records",
    "longterm_latency_changes",
    "FIG4_COUNTRY_ORDER",
    "PAPER_FIG4_F",
    "PAPER_FIG19_F",
    "fit_richness_overrides",
    "measured_fraction_f",
    "paper_fraction_f",
    "render_calibration_module",
    "CampaignStats",
    "MeasurementCampaign",
    "GRANULARITIES",
    "model_fraction_f",
    "model_granularity_summary",
    "fraction_f_by_group",
    "granularity_summary",
    "weighted_difference",
    "LoadBalancer",
    "ProbeRecord",
    "ProbeSampler",
    "ProbeVm",
]
