"""Statistics helpers: empirical CDFs, (weighted) percentiles, summaries."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """P(X <= threshold) for an empirical sample."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(data <= threshold))


def weighted_percentiles(
    values: Sequence[float], weights: Sequence[float], qs: Sequence[float]
) -> np.ndarray:
    """Weighted percentiles (each q in [0, 100]) by cumulative weight.

    One sort serves every requested quantile, so callers scoring
    ``(value, weight)`` sample arrays (the §7.1 latency stats) get
    mean/median/P95 without re-sorting per statistic.
    """
    q = np.asarray(qs, dtype=float)
    if not np.all((q >= 0.0) & (q <= 100.0)):  # NaN fails both comparisons
        raise ValueError("q must be in [0, 100]")
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample")
    if v.shape != w.shape:
        raise ValueError("values and weights must align")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    order = np.argsort(v)
    v, w = v[order], w[order]
    total = w.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    cum = np.cumsum(w) / total
    idx = np.minimum(np.searchsorted(cum, q / 100.0, side="left"), v.size - 1)
    return v[idx]


def weighted_percentile(values: Sequence[float], weights: Sequence[float], q: float) -> float:
    """Weighted percentile (q in [0, 100]) by cumulative weight."""
    return float(weighted_percentiles(values, weights, [q])[0])


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / median / P95 / min / max summary."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("empty sample")
    return {
        "mean": float(np.mean(data)),
        "median": float(np.median(data)),
        "p95": float(np.percentile(data, 95)),
        "min": float(np.min(data)),
        "max": float(np.max(data)),
    }
