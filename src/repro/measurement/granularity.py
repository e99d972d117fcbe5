"""Clustering-granularity analysis (Fig 5, Appendix A.4).

The paper checks whether the country-level F conclusions survive at
finer client granularities (ASN, city, city+ASN).  For a granularity g
that splits a country into sub-groups with measurement-share weights
w_i and per-group fractions F_i, the weighted difference against the
country-level F_c is

    D = sum_i |F_i - F_c| * w_i / F_c

The paper finds D bounded by ~8% at P50 (and ~11% at P90 for
city+ASN), i.e. country-level clustering is good enough for Titan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..net.latency import INTERNET, WAN, LatencyModel
from .probes import ProbeRecord

GRANULARITIES = ("asn", "country_asn", "city", "city_asn")


def _group_key(record: ProbeRecord, granularity: str) -> Tuple:
    if granularity == "asn":
        return (record.asn,)
    if granularity == "country_asn":
        return (record.country_code, record.asn)
    if granularity == "city":
        return (record.city_name,)
    if granularity == "city_asn":
        return (record.city_name, record.asn)
    raise ValueError(f"unknown granularity: {granularity!r}")


def fraction_f_by_group(
    records: Iterable[ProbeRecord],
    dc_code: str,
    granularity: Optional[str],
    threshold_ms: float = 10.0,
) -> Dict[Tuple, float]:
    """F per client group for one destination DC.

    ``granularity=None`` clusters per country.  F is computed from
    hourly medians of Internet and WAN RTTs within each group.
    """
    samples: Dict[Tuple, Dict[Tuple[str, int], List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for record in records:
        if record.dc_code != dc_code:
            continue
        if granularity is None:
            key = (record.country_code,)
        else:
            key = (record.country_code,) + _group_key(record, granularity)
        samples[key][(record.option, record.hour)].append(record.rtt_ms)

    fractions: Dict[Tuple, float] = {}
    for key, by_option_hour in samples.items():
        hours = sorted({hour for (_, hour) in by_option_hour})
        good = 0
        counted = 0
        for hour in hours:
            internet = by_option_hour.get((INTERNET, hour))
            wan = by_option_hour.get((WAN, hour))
            if not internet or not wan:
                continue
            counted += 1
            if np.median(internet) <= np.median(wan) + threshold_ms:
                good += 1
        if counted:
            fractions[key] = good / counted
    return fractions


def weighted_difference(
    records: Sequence[ProbeRecord],
    dc_code: str,
    granularity: str,
    threshold_ms: float = 10.0,
) -> Dict[str, float]:
    """The A.4 metric D per client country for one DC and granularity."""
    country_f = fraction_f_by_group(records, dc_code, None, threshold_ms)
    group_f = fraction_f_by_group(records, dc_code, granularity, threshold_ms)

    counts: Dict[Tuple, int] = defaultdict(int)
    country_counts: Dict[str, int] = defaultdict(int)
    for record in records:
        if record.dc_code != dc_code:
            continue
        key = (record.country_code,) + _group_key(record, granularity)
        counts[key] += 1
        country_counts[record.country_code] += 1

    differences: Dict[str, float] = {}
    for (country,), f_c in country_f.items():
        if f_c <= 0:
            continue
        total = country_counts[country]
        if total == 0:
            continue
        d = 0.0
        for key, f_i in group_f.items():
            if key[0] != country:
                continue
            weight = counts[key] / total
            d += abs(f_i - f_c) * weight / f_c
        differences[country] = d
    return differences


def _hourly_medians(
    model: LatencyModel, country_code: str, dc_code: str, hours: int
) -> List[Tuple[float, float]]:
    """(Internet, WAN) hourly-median RTTs for hours ``0..hours-1``."""
    return [
        (
            model.hourly_median_rtt_ms(country_code, dc_code, INTERNET, hour),
            model.hourly_median_rtt_ms(country_code, dc_code, WAN, hour),
        )
        for hour in range(hours)
    ]


def _group_fraction_f(
    model: LatencyModel,
    medians: Sequence[Tuple[float, float]],
    country_code: str,
    city_index: Optional[int],
    asn_number: Optional[int],
    threshold_ms: float,
) -> float:
    """F for one client group over its country's hourly medians."""
    # A city's distance from the country centroid shifts both options,
    # but the hot-potato path feels it slightly more (its peering point
    # sits near the client).
    offset = model.city_offset_ms(country_code, city_index) if city_index is not None else None
    multiplier = (
        model.asn_multiplier(country_code, asn_number) if asn_number is not None else None
    )
    good = 0
    for internet, wan in medians:
        if offset is not None:
            internet += offset
            wan += 0.85 * offset
        if multiplier is not None:
            internet *= multiplier
        if internet <= wan + threshold_ms:
            good += 1
    return good / float(len(medians))


def model_fraction_f(
    model: LatencyModel,
    country_code: str,
    dc_code: str,
    city_index: Optional[int] = None,
    asn_number: Optional[int] = None,
    hours: int = 168,
    threshold_ms: float = 10.0,
) -> float:
    """F for a sub-country client group, from hourly medians directly.

    City membership shifts both options by a stable offset; ASN
    membership scales the Internet RTT by the ASN's quality multiplier
    (last-mile providers affect the hot-potato path, not the WAN's).
    """
    medians = _hourly_medians(model, country_code, dc_code, hours)
    return _group_fraction_f(model, medians, country_code, city_index, asn_number, threshold_ms)


def model_granularity_summary(
    model: LatencyModel,
    countries: Sequence[str],
    dcs: Sequence[str],
    hours: int = 120,
    granularities: Sequence[str] = GRANULARITIES,
    threshold_ms: float = 10.0,
) -> Dict[str, Dict[str, float]]:
    """Fig 5 from the model directly (noise-free group fractions).

    The record-based :func:`granularity_summary` needs a very dense
    campaign before group-level F estimates stabilize; this variant
    computes each group's F deterministically from the hourly medians
    and weights groups by population / market share, isolating the true
    sub-country heterogeneity the figure is about.  Each (country, DC)
    cell's hourly medians are computed once and shared by its groups.
    """
    world = model.world
    summary: Dict[str, Dict[str, float]] = {}
    cells: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for granularity in granularities:
        values: List[float] = []
        for dc in dcs:
            for country in countries:
                medians = cells.get((country, dc))
                if medians is None:
                    medians = cells[(country, dc)] = _hourly_medians(model, country, dc, hours)
                f_c = _group_fraction_f(model, medians, country, None, None, threshold_ms)
                if f_c <= 0:
                    continue
                cities = world.cities(country)
                asns = world.asns(country)
                groups: List[Tuple[float, Optional[int], Optional[int]]] = []
                if granularity == "asn" or granularity == "country_asn":
                    groups = [(a.share, None, a.number) for a in asns]
                elif granularity == "city":
                    total = sum(c.population_weight for c in cities)
                    groups = [(c.population_weight / total, i, None) for i, c in enumerate(cities)]
                else:  # city_asn
                    total = sum(c.population_weight for c in cities)
                    groups = [
                        (c.population_weight / total * a.share, i, a.number)
                        for i, c in enumerate(cities)
                        for a in asns
                    ]
                d = 0.0
                for weight, city_index, asn_number in groups:
                    f_i = _group_fraction_f(
                        model, medians, country, city_index, asn_number, threshold_ms
                    )
                    d += abs(f_i - f_c) * weight / f_c
                values.append(d)
        summary[granularity] = {
            "p50": float(np.percentile(values, 50)),
            "p90": float(np.percentile(values, 90)),
        }
    return summary


def granularity_summary(
    records: Sequence[ProbeRecord],
    dc_codes: Sequence[str],
    granularities: Sequence[str] = GRANULARITIES,
    threshold_ms: float = 10.0,
) -> Dict[str, Dict[str, float]]:
    """P50/P90 of D across (country, DC) cells per granularity (Fig 5)."""
    summary: Dict[str, Dict[str, float]] = {}
    for granularity in granularities:
        values: List[float] = []
        for dc in dc_codes:
            values.extend(weighted_difference(records, dc, granularity, threshold_ms).values())
        if not values:
            raise ValueError(f"no data for granularity {granularity!r}")
        summary[granularity] = {
            "p50": float(np.percentile(values, 50)),
            "p90": float(np.percentile(values, 90)),
        }
    return summary
