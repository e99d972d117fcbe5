"""Stress & failure campaign family: event days with intraday replanning.

Pins the operational claims the stress layer reproduces: a mid-day
fiber cut is replanned onto the WAN, a DC outage drains to the rest of
the fleet, a 12× flash crowd degrades gracefully through the §6.4
surge path instead of failing, and the quieter holiday/shock days stay
feasible.  Campaign metrics (overflow/surge rates, replan rounds, WAN
peaks) land in ``BENCH_stress_campaign.json`` for nightly tracking,
with the planning counts of the whole six-timeline family on one setup
(plan-cache solves, memo hits, and the HiGHS solves between them: the
distinct LPs a campaign solves).
"""

from dataclasses import replace

import pytest
from conftest import emit

from repro.core.stress import StressTimeline, campaign_scenarios, run_campaign_day
from repro.experiments.stress_exps import (
    run_stress_dc_outage,
    run_stress_fiber_cut,
    run_stress_flash_crowd,
)

DAY = 2

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def baseline_day(eval_setup):
    return run_campaign_day(eval_setup, StressTimeline(()), day=DAY)


@pytest.fixture(scope="module")
def scenarios(eval_setup):
    return campaign_scenarios(eval_setup)


def test_stress_fiber_cut_campaign(eval_setup, record_bench):
    result = emit(run_stress_fiber_cut(setup=eval_setup, day=DAY))
    measured = result.measured
    # Withdrawing the corridor's Internet fallback pushes load to the WAN.
    assert measured["sum_of_peaks_gbps"] > measured["baseline_sum_of_peaks_gbps"]
    assert measured["internet_share"] < measured["baseline_internet_share"]
    # The cut changes capacity, not demand, and stays feasible.
    assert measured["calls"] == measured["baseline_calls"]
    assert measured["infeasible_rounds"] == 0
    record_bench(
        sum_of_peaks_gbps=measured["sum_of_peaks_gbps"],
        baseline_sum_of_peaks_gbps=measured["baseline_sum_of_peaks_gbps"],
        internet_share=measured["internet_share"],
        replanned_rounds=measured["replanned_rounds"],
    )


def test_stress_dc_outage_campaign(eval_setup, record_bench):
    result = emit(run_stress_dc_outage(setup=eval_setup, day=DAY))
    measured = result.measured
    # Losing the smallest-share DC must be replannable onto the rest.
    assert measured["infeasible_rounds"] == 0
    assert measured["replanned_rounds"] > 0
    assert measured["surge_rate"] < 0.05
    record_bench(
        sum_of_peaks_gbps=measured["sum_of_peaks_gbps"],
        overflow_rate=measured["overflow_rate"],
        replanned_rounds=measured["replanned_rounds"],
    )


def test_stress_flash_crowd_surge_degrades_gracefully(eval_setup, record_bench):
    """The acceptance scenario: the 12× surge goes infeasible mid-day,
    the stale plan is kept, the overflow is accounted, scoring completes."""
    result = emit(run_stress_flash_crowd(setup=eval_setup, day=DAY))
    moderate, surge = result.measured["moderate"], result.measured["surge"]
    # The moderate crowd is absorbed by replanning.
    assert moderate["infeasible_rounds"] == 0
    # The surge is not: infeasible rounds, a large overdraft, but the
    # day still completes end to end with a scored evaluation.
    assert surge["infeasible_rounds"] >= 1
    assert surge["overflow_rate"] > moderate["overflow_rate"]
    assert surge["overflow_rate"] > 0.2
    assert surge["sum_of_peaks_gbps"] > 0
    record_bench(
        moderate_overflow_rate=moderate["overflow_rate"],
        surge_overflow_rate=surge["overflow_rate"],
        surge_infeasible_rounds=surge["infeasible_rounds"],
        surge_calls=surge["calls"],
    )


def test_stress_holiday_and_shock_stay_feasible(eval_setup, scenarios, baseline_day, record_bench):
    holiday = run_campaign_day(eval_setup, scenarios["holiday"], day=DAY)
    shock = run_campaign_day(eval_setup, scenarios["demand-shock"], day=DAY)
    # The trough shrinks the day; the correlated shock grows it.
    assert holiday.stats.calls < baseline_day.stats.calls
    assert shock.stats.calls > baseline_day.stats.calls
    assert holiday.infeasible_rounds == 0
    # Replanning sees the shock at onset and keeps overdraft bounded.
    assert shock.overflow_rate < 0.2
    record_bench(
        holiday_calls=int(holiday.stats.calls),
        shock_calls=int(shock.stats.calls),
        baseline_calls=int(baseline_day.stats.calls),
        shock_overflow_rate=round(shock.overflow_rate, 4),
        holiday_sum_of_peaks_gbps=round(holiday.evaluation.sum_of_peaks_gbps, 4),
    )


def test_stress_family_solves_each_distinct_lp_once(eval_setup, record_bench):
    """The six pinned timelines on one setup plan through its one cache.

    A copy of the setup starts with a cold cache, so the counts cover
    this campaign only.  A round repeats an earlier LP (and is served
    from the memo) when its horizon and loaded row bounds match: a
    round before its timeline's first event, or after a capacity event
    has ended.
    """
    setup = replace(eval_setup)
    results = [
        run_campaign_day(setup, timeline, day=DAY)
        for timeline in campaign_scenarios(setup).values()
    ]
    cache = setup.plan_cache()
    assert cache.solves == sum(len(result.replan_events) for result in results)
    assert 0 < cache.memo_hits < cache.solves
    record_bench(
        plan_solves=cache.solves,
        plan_memo_hits=cache.memo_hits,
        highs_solves=cache.solves - cache.memo_hits,
    )
