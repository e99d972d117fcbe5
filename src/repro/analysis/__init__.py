"""Evaluation layer: statistics helpers and the §7.1 metrics."""

from .cost import GCP_SINGAPORE, CostReport, Tariff, compare_costs, cost_of, internet_traffic_gb
from .metrics import (
    EvaluationResult,
    LoadMatrix,
    evaluate_assignment,
    evaluate_batch,
    normalize_to,
    savings_vs,
)
from .reporting import bar_chart, cdf_sparkline, format_table, policy_comparison
from .stats import (
    cdf_at,
    summarize,
    weighted_percentile,
    weighted_percentiles,
)

__all__ = [
    "GCP_SINGAPORE",
    "CostReport",
    "Tariff",
    "compare_costs",
    "cost_of",
    "internet_traffic_gb",
    "bar_chart",
    "cdf_sparkline",
    "format_table",
    "policy_comparison",
    "EvaluationResult",
    "LoadMatrix",
    "evaluate_assignment",
    "evaluate_batch",
    "normalize_to",
    "savings_vs",
    "cdf_at",
    "summarize",
    "weighted_percentile",
    "weighted_percentiles",
]
