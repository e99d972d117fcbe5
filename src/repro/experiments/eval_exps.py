"""Experiments regenerating the §7/§8 evaluation artifacts.

Figures 14, 15, 20; Tables 3, 4; plus the §7.4 ablations (MP-only,
doubled Internet, LF-E2E variant, single-DC restriction).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..analysis.metrics import evaluate_batch, normalize_to
from ..core.forecast import forecast_day, normalized_errors
from ..core.lp import JointAssignmentLp, JointLpOptions
from ..core.sweep import SweepRunner
from ..core.titan_next import (
    EuropeSetup,
    build_europe_setup,
    migration_comparison,
    oracle_demand_for_day,
    run_oracle_day,
)
from ..workload.demand import SLOTS_PER_DAY
from .base import ExperimentResult

#: Weekday names indexed by ``day % 7`` (day 0 is a Monday; the §7.5
#: weekend E2E relaxation at ``day % 7 >= 5`` lands on Sat/Sun).
WEEKDAY_LABELS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def weekday_label(day: int) -> str:
    """The calendar weekday of an absolute simulation day."""
    return WEEKDAY_LABELS[day % 7]


def default_setup(daily_calls: float = 6_000.0, top_n_configs: int = 60) -> EuropeSetup:
    """The scaled intra-Europe evaluation setup used by the benches."""
    return build_europe_setup(daily_calls=daily_calls, top_n_configs=top_n_configs)


def default_setup_for(
    scenario: Optional[str] = None,
    daily_calls: float = 6_000.0,
    top_n_configs: int = 60,
) -> EuropeSetup:
    """The evaluation setup for a named zoo scenario, or the Europe box.

    ``scenario=None`` keeps every runner's historical default (the §7.3
    intra-Europe slice); any name from the scenario zoo swaps in that
    RTT-calibrated topology instead, so the figure runners sweep
    ``scenario=`` like they sweep ``workers=``.
    """
    if scenario is None:
        return default_setup(daily_calls=daily_calls, top_n_configs=top_n_configs)
    from ..scenarios import build_scenario

    return build_scenario(scenario, daily_calls=daily_calls, top_n_configs=top_n_configs)


def fig14_measured(week) -> Dict[str, object]:
    """Aggregate a ``SweepRunner.run_oracle_days`` result into the Fig 14 rows.

    Rows are labeled by each day's actual weekday (``day % 7``) and
    every simulated day is included — no truncation or mislabeling
    when the sweep is shorter or longer than seven days.
    """
    normalized_rows: Dict[str, Dict[str, float]] = {}
    weekday_savings = {"lf": [], "titan-next": []}
    for day, results in week.items():
        peaks = {name: r.sum_of_peaks_gbps for name, r in results.items()}
        normalized = normalize_to(peaks, "wrr")
        label = f"{weekday_label(day)} (day {day})"
        normalized_rows[label] = {k: round(v, 3) for k, v in normalized.items()}
        if day % 7 < 5:
            weekday_savings["titan-next"].append(1 - normalized["titan-next"])
            weekday_savings["lf"].append(normalized["lf"] - normalized["titan-next"])
    return {
        "normalized_peaks_by_day": normalized_rows,
        "tn_savings_vs_wrr_weekdays": [round(v, 3) for v in weekday_savings["titan-next"]],
        "tn_savings_vs_lf_weekdays": [round(v, 3) for v in weekday_savings["lf"]],
    }


def run_fig14(
    setup: Optional[EuropeSetup] = None,
    days: int = 7,
    workers: int = 1,
    chunk_days: Optional[int] = None,
    scenario: Optional[str] = None,
) -> ExperimentResult:
    """Fig 14 — oracle sum-of-peaks per day, normalized to WRR.

    The window starts on day 2, a Wednesday like Fig 14's week.
    ``workers`` fans the per-day assignment + scoring across a sweep
    pool and ``chunk_days`` bounds in-flight days; the measured rows
    are identical for any worker count.
    ``scenario`` swaps the Europe box for a named zoo topology.
    """
    setup = setup if setup is not None else default_setup_for(scenario)
    week = SweepRunner(setup, workers=workers).run_oracle_days(
        range(2, 2 + days), chunk_days=chunk_days
    )
    measured = fig14_measured(week)
    return ExperimentResult(
        experiment_id="fig14",
        title="Oracle: sum of peak WAN bandwidth per day",
        measured=measured,
        paper={
            "tn_savings_vs_wrr_weekdays": "0.24-0.28",
            "tn_savings_vs_lf_weekdays": "0.13-0.19",
        },
    )


def run_tab3(
    setup: Optional[EuropeSetup] = None,
    day: int = 2,
    scenario: Optional[str] = None,
) -> ExperimentResult:
    """Table 3 — daily average / median / P95 of max-E2E latency."""
    setup = setup if setup is not None else default_setup_for(scenario)
    results = run_oracle_day(setup, day, policies=("wrr", "lf", "titan-next"))
    measured = {}
    for name, result in results.items():
        measured[name] = {
            "mean_ms": round(result.mean_e2e_ms(), 1),
            "median_ms": round(result.median_e2e_ms(), 1),
            "p95_ms": round(result.percentile_e2e_ms(95), 1),
        }
    return ExperimentResult(
        experiment_id="tab3",
        title="Daily average of max E2E latency across calls",
        measured=measured,
        paper={
            "wrr": {"mean_ms": "82-86", "median_ms": "75-78", "p95_ms": "120"},
            "lf": {"mean_ms": "71-75", "median_ms": "70", "p95_ms": "100-103"},
            "titan-next": {"mean_ms": "74-80", "median_ms": "70-76", "p95_ms": "103-122"},
        },
        notes="absolute ms differ (intra-Europe synthetic geography); ordering is the claim",
    )


def fig15_measured(window, scenario) -> Dict[str, object]:
    """Aggregate a §8 window (``{day: {policy: result}}``) into Fig 15 rows.

    Per-day peaks are normalized to WRR; the headline savings are the
    window means, so a one-day window reproduces the single-day Fig 15
    numbers exactly.  Results scored in-pool (``evaluation`` set) are
    consumed without re-evaluating.

    ``window`` may also be an *iterable* of ``(day, results)`` pairs —
    the streaming form :meth:`~repro.core.sweep.SweepRunner.iter_days`
    produces — in which case days are aggregated as they arrive and
    never held together in memory.
    """
    by_day: Dict[str, Dict[str, float]] = {}
    savings_wrr: List[float] = []
    savings_lf: List[float] = []
    migration_rates: List[float] = []
    sums: Dict[str, float] = {}
    items = window.items() if hasattr(window, "items") else window
    for day, results in items:
        peaks = {
            name: (
                r.evaluation if r.evaluation is not None else r.evaluate(scenario)
            ).sum_of_peaks_gbps
            for name, r in results.items()
        }
        normalized = normalize_to(peaks, "wrr")
        by_day[f"{weekday_label(day)} (day {day})"] = {
            k: round(v, 3) for k, v in normalized.items()
        }
        for name, value in normalized.items():
            sums[name] = sums.get(name, 0.0) + value
        savings_wrr.append(1 - normalized["titan-next"])
        savings_lf.append(normalized["lf"] - normalized["titan-next"])
        stats = results["titan-next"].stats
        if stats is not None:
            migration_rates.append(stats.dc_migration_rate)
    n = len(by_day)
    measured: Dict[str, object] = {
        "normalized_peaks": {k: round(v / n, 3) for k, v in sums.items()},
        "normalized_peaks_by_day": by_day,
        "tn_savings_vs_wrr": round(float(np.mean(savings_wrr)), 3),
        "tn_savings_vs_lf": round(float(np.mean(savings_lf)), 3),
    }
    if migration_rates:
        measured["tn_dc_migration_rate"] = round(float(np.mean(migration_rates)), 3)
    return measured


def run_fig15(
    setup: Optional[EuropeSetup] = None,
    day: int = 30,
    days: int = 1,
    workers: int = 1,
    chunk_days: Optional[int] = None,
    scenario: Optional[str] = None,
) -> ExperimentResult:
    """Fig 15 — prediction-based sum-of-peaks, normalized to WRR.

    ``days > 1`` extends the experiment over a window starting at
    ``day`` (per-day rows plus window-mean savings), planned through
    one plan cache and replayed/scored across ``workers``.  Only the
    in-pool scores and stats are read, so days travel as compact
    summaries (``return_tables=False``).
    ``scenario`` swaps in a named zoo topology.
    """
    setup = setup if setup is not None else default_setup_for(scenario)
    window = SweepRunner(setup, workers=workers).run_prediction_window(
        range(day, day + days), evaluate=True, chunk_days=chunk_days, return_tables=False
    )
    measured = fig15_measured(window, setup.scenario)
    return ExperimentResult(
        experiment_id="fig15",
        title="Prediction-based: sum of peak WAN bandwidth",
        measured=measured,
        paper={
            "tn_savings_vs_wrr": "0.55-0.61",
            "tn_savings_vs_lf": "0.38-0.44",
        },
    )


def run_fig18_sweep(
    setup: Optional[EuropeSetup] = None,
    start_day: int = 28,
    days: int = 14,
    workers: int = 1,
    chunk_days: Optional[int] = None,
    scenario: Optional[str] = None,
) -> ExperimentResult:
    """Fig 18-style long-horizon §8 sweep: savings held over weeks.

    The paper's longitudinal claim is that Titan-Next's savings are not
    a single lucky day — they persist across a multi-week deployment
    window.  This regenerates that evidence at reproduction scale: a
    multi-week prediction-mode window (forecast → plan → replay →
    score per day), aggregated like Fig 15 but reporting the per-day
    savings spread alongside the window mean.

    The measured rows are identical for any worker count and chunk
    size.  Days travel as compact summaries (``return_tables=False``:
    only scores and stats are read) and *stream*: they flow straight
    from the sweep into the aggregator, and with ``chunk_days`` set
    only one chunk of results is alive at a time, so the horizon can
    grow without the resident set growing with it.
    """
    setup = setup if setup is not None else default_setup_for(scenario)
    stream = SweepRunner(setup, workers=workers).iter_days(
        range(start_day, start_day + days),
        evaluate=True,
        chunk_days=chunk_days,
        return_tables=False,
    )
    measured = fig15_measured(stream, setup.scenario)
    per_day = [1 - row["titan-next"] for row in measured["normalized_peaks_by_day"].values()]
    measured["tn_savings_vs_wrr_min_day"] = round(min(per_day), 3)
    measured["tn_savings_vs_wrr_max_day"] = round(max(per_day), 3)
    return ExperimentResult(
        experiment_id="fig18-sweep",
        title="Long-horizon prediction sweep: savings held across weeks",
        measured=measured,
        paper={
            "tn_savings_vs_wrr": "0.55-0.61 (held across the deployment window)",
        },
        notes="window mean plus per-day min/max",
    )


def run_fig20(
    setup: Optional[EuropeSetup] = None,
    configs: int = 25,
    daily_calls: float = 150_000.0,
) -> ExperimentResult:
    """Fig 20 — normalized RMSE/MAE of the Holt-Winters forecasts.

    Accuracy is volume-dependent (Poisson noise shrinks with rate), so
    this experiment uses a higher-volume demand model than the policy
    benches — the paper's O(10M) calls/day sit further along the same
    curve.
    """
    if setup is None:
        setup = build_europe_setup(daily_calls=daily_calls, top_n_configs=max(configs, 60))
    maes, rmses = [], []
    history_slots = 4 * 7 * SLOTS_PER_DAY
    for item in setup.universe.top(configs):
        history = setup.demand.series(item.config, 0, history_slots)
        actual = setup.demand.series(item.config, history_slots, SLOTS_PER_DAY)
        if history.max() <= 0 or actual.max() <= 0:
            continue
        predicted = forecast_day(history)
        mae, rmse = normalized_errors(actual, predicted)
        maes.append(mae)
        rmses.append(rmse)
    return ExperimentResult(
        experiment_id="fig20",
        title="Prediction accuracy (normalized to peak)",
        measured={
            "median_mae": round(float(np.median(maes)), 3),
            "median_rmse": round(float(np.median(rmses)), 3),
            "share_mae_below_20pct": round(float(np.mean(np.array(maes) < 0.2)), 3),
            "share_rmse_below_20pct": round(float(np.mean(np.array(rmses) < 0.2)), 3),
        },
        paper={
            "median_mae": 0.049,
            "median_rmse": 0.106,
            "share_mae_below_20pct": 0.956,
            "share_rmse_below_20pct": 0.897,
        },
    )


def run_tab4(
    setup: Optional[EuropeSetup] = None,
    day: int = 30,
    scenario: Optional[str] = None,
) -> ExperimentResult:
    """Table 4 — migrations with vs without reduced call configs."""
    setup = setup if setup is not None else default_setup_for(scenario)
    rates = migration_comparison(setup, day)
    reduced_dc = rates["reduced"]["dc_migration_rate"]
    raw_dc = rates["raw"]["dc_migration_rate"]
    reduction = 1.0 - reduced_dc / raw_dc if raw_dc > 0 else 0.0
    return ExperimentResult(
        experiment_id="tab4",
        title="Call migrations: reduced vs raw call configs",
        measured={
            "migration_rate_with_reduced": round(reduced_dc, 3),
            "migration_rate_with_raw": round(raw_dc, 3),
            "migration_reduction": round(reduction, 3),
            "option_migration_rate_with_reduced": round(
                rates["reduced"]["option_migration_rate"], 3
            ),
            "unplanned_rate_with_reduced": round(rates["reduced"]["unplanned_rate"], 3),
        },
        paper={
            "migration_rate_with_reduced": "0.11-0.19 (avg 0.15)",
            "migration_rate_with_raw": "0.11-0.34 (avg 0.31)",
            "migration_reduction": "0.38-0.66 on weekdays",
        },
    )


# ---------------------------------------------------------------------------
# §7.4 ablations
# ---------------------------------------------------------------------------


def run_ablation_mp_only(setup: Optional[EuropeSetup] = None, day: int = 2) -> ExperimentResult:
    """§7.4 — savings from MP DC placement alone (no Internet)."""
    setup = setup if setup is not None else default_setup()
    demand = oracle_demand_for_day(setup, day)
    from ..core.policies import TitanNextPolicy, WrrPolicy

    wrr = evaluate_batch(setup.scenario, WrrPolicy(setup.scenario).assign(demand), "wrr")
    full = evaluate_batch(
        setup.scenario, TitanNextPolicy(setup.scenario).assign(demand), "tn"
    )
    mp_only = evaluate_batch(
        setup.scenario,
        TitanNextPolicy(setup.scenario, JointLpOptions(allow_internet=False)).assign(demand),
        "tn-mp-only",
    )
    return ExperimentResult(
        experiment_id="abl-mponly",
        title="Savings with only MP DC placement (no Internet offload)",
        measured={
            "tn_full_savings_vs_wrr": round(1 - full.sum_of_peaks_gbps / wrr.sum_of_peaks_gbps, 3),
            "tn_mp_only_savings_vs_wrr": round(
                1 - mp_only.sum_of_peaks_gbps / wrr.sum_of_peaks_gbps, 3
            ),
        },
        paper={
            "tn_full_savings_vs_wrr": "0.24-0.28",
            "tn_mp_only_savings_vs_wrr": "0.167-0.20",
        },
    )


def run_ablation_double_internet(
    setup: Optional[EuropeSetup] = None, day: int = 2
) -> ExperimentResult:
    """§7.4 — savings if Internet capacities were doubled."""
    setup = setup if setup is not None else default_setup()
    demand = oracle_demand_for_day(setup, day)
    from ..core.policies import TitanNextPolicy, WrrPolicy

    wrr = evaluate_batch(setup.scenario, WrrPolicy(setup.scenario).assign(demand), "wrr")
    base = evaluate_batch(setup.scenario, TitanNextPolicy(setup.scenario).assign(demand), "tn")
    doubled = evaluate_batch(
        setup.scenario,
        TitanNextPolicy(
            setup.scenario, JointLpOptions(internet_capacity_factor=2.0)
        ).assign(demand),
        "tn-2x",
    )
    return ExperimentResult(
        experiment_id="abl-2x",
        title="Savings with doubled Internet capacity",
        measured={
            "tn_savings_vs_wrr": round(1 - base.sum_of_peaks_gbps / wrr.sum_of_peaks_gbps, 3),
            "tn_2x_savings_vs_wrr": round(1 - doubled.sum_of_peaks_gbps / wrr.sum_of_peaks_gbps, 3),
        },
        paper={"tn_2x_savings_vs_wrr": "0.27-0.38 (weekdays)"},
    )


def run_ablation_lf_e2e(setup: Optional[EuropeSetup] = None, day: int = 2) -> ExperimentResult:
    """§7.4 — TN vs the LF variant minimizing total max-E2E latency."""
    setup = setup if setup is not None else default_setup()
    demand = oracle_demand_for_day(setup, day)
    from ..core.policies import LocalityFirstPolicy, TitanNextPolicy

    lf_e2e = evaluate_batch(
        setup.scenario,
        LocalityFirstPolicy(setup.scenario, objective="total_e2e").assign(demand),
        "lf-e2e",
    )
    tn = evaluate_batch(setup.scenario, TitanNextPolicy(setup.scenario).assign(demand), "tn")
    return ExperimentResult(
        experiment_id="abl-e2e",
        title="TN vs LF optimizing total max-E2E latency",
        measured={
            "tn_savings_vs_lf_e2e": round(1 - tn.sum_of_peaks_gbps / lf_e2e.sum_of_peaks_gbps, 3),
        },
        paper={"tn_savings_vs_lf_e2e": "0.16-0.29 (weekdays)"},
    )


def run_ablation_single_dc(setup: Optional[EuropeSetup] = None, day: int = 2) -> ExperimentResult:
    """§6.3 'what did not work' — pinning each config to one DC."""
    setup = setup if setup is not None else default_setup()
    demand = oracle_demand_for_day(setup, day)
    from ..core.policies import TitanNextPolicy

    free = evaluate_batch(setup.scenario, TitanNextPolicy(setup.scenario).assign(demand), "tn")
    pinned = evaluate_batch(
        setup.scenario,
        TitanNextPolicy(setup.scenario, JointLpOptions(single_dc_per_config=True)).assign(demand),
        "tn-single-dc",
    )
    return ExperimentResult(
        experiment_id="abl-ilp",
        title="Single DC per config (abandoned ILP idea)",
        measured={
            "free_sum_of_peaks": round(free.sum_of_peaks_gbps, 3),
            "pinned_sum_of_peaks": round(pinned.sum_of_peaks_gbps, 3),
            "savings_lost_by_pinning": round(
                pinned.sum_of_peaks_gbps / free.sum_of_peaks_gbps - 1.0, 3
            ),
        },
        paper={"finding": "network savings substantially diminished"},
    )


def run_ablation_split_routing(
    setup: Optional[EuropeSetup] = None, day: int = 2
) -> ExperimentResult:
    """Future work (§6.3): per-participant split routing.

    The fractional single-option LP already splits traffic at the
    config level, so the prototype's gains concentrate where the
    single-option rule actually binds: international calls touching a
    country whose Internet is disabled (Germany, Austria) — with split
    routing their *other* participants may still offload.
    """
    setup = setup if setup is not None else default_setup()
    from ..core.split_lp import SplitRoutingLp

    demand = oracle_demand_for_day(setup, day)
    single = JointAssignmentLp(setup.scenario, demand).solve()
    split = SplitRoutingLp(setup.scenario, demand).solve()
    mixed_calls = sum(
        count for (t, c), count in demand.items()
        if not c.is_intra_country and any(
            min(setup.scenario.internet_cap_gbps(k, dc) for dc in setup.scenario.dc_codes) <= 0
            for k in c.countries
        )
    )
    return ExperimentResult(
        experiment_id="abl-split",
        title="Per-participant split routing (future work prototype)",
        measured={
            "single_option_sum_of_peaks": round(single.sum_of_peaks(), 4),
            "split_routing_sum_of_peaks": round(split.sum_of_peaks(), 4),
            "improvement": round(1 - split.sum_of_peaks() / max(single.sum_of_peaks(), 1e-12), 4),
            "mixed_eligibility_calls": round(mixed_calls, 0),
        },
        paper={"finding": "left for future work (out-of-order/jitter concerns)"},
    )


def run_ablation_fiber_cut(
    day: int = 2, daily_calls: float = 6_000.0, top_n_configs: int = 60
) -> ExperimentResult:
    """§4.2(7) — a WAN fiber cut and the Internet as a fall-back.

    Cuts a backbone link on the UK corridor, re-derives the WAN routes,
    and re-runs Titan-Next: the WAN detour inflates per-link peaks, and
    the LP leans harder on the Internet capacities to contain them —
    the mechanism the paper used during the Africa fiber cut.
    """
    from ..geo.world import default_world
    from ..net.latency import LatencyModel
    from ..net.topology import WanTopology
    from ..core.policies import TitanNextPolicy

    world = default_world()
    topology = WanTopology(world)
    latency = LatencyModel(world, topology=topology)
    setup = build_europe_setup(
        daily_calls=daily_calls, top_n_configs=top_n_configs, world=world, latency=latency
    )
    demand = oracle_demand_for_day(setup, day)

    before = evaluate_batch(
        setup.scenario, TitanNextPolicy(setup.scenario).assign(demand), "tn"
    )

    # Cut the first removable link on the UK -> westeurope WAN route.
    cut = None
    for link in topology.wan_path("GB", "westeurope"):
        try:
            topology.remove_link(link)
            cut = link
            break
        except ValueError:
            continue
    assert cut is not None
    # No cache flush needed: the topology version counter makes the
    # LatencyModel drop its stale WAN RTTs on the next query.
    from ..core.scenario import Scenario

    degraded_scenario = Scenario(
        world,
        latency,
        setup.scenario.country_codes,
        setup.scenario.dc_codes,
        setup.capacity_book,
        compute_caps=setup.scenario.compute_caps,
    )
    after = evaluate_batch(
        degraded_scenario, TitanNextPolicy(degraded_scenario).assign(demand), "tn-cut"
    )
    topology.restore_link(cut)
    return ExperimentResult(
        experiment_id="abl-fibercut",
        title="Fiber cut: WAN detour and Internet fall-back",
        measured={
            "cut_link": "-".join(sorted(cut.key)),
            "sum_of_peaks_before": round(before.sum_of_peaks_gbps, 4),
            "sum_of_peaks_after": round(after.sum_of_peaks_gbps, 4),
            "internet_share_before": round(before.internet_share, 4),
            "internet_share_after": round(after.internet_share, 4),
        },
        paper={
            "finding": "Internet freed WAN capacity during a months-long fiber cut (§4.2(7))"
        },
    )
