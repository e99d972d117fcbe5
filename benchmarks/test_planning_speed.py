"""Planning speed: one cached LP over global/top-200, solved day by day.

A :class:`~repro.core.titan_next.PlanCache` keeps one HiGHS model
loaded over the setup's reduced config set (~184k columns × ~44k rows here)
and solves every day from the slack basis with presolve off.  A day is
then as dear as its own LP, whatever was solved before it.  Hot-starting
day 31 from day 30's optimal basis instead halved the dual-simplex
iterations but made each one 3–4× dearer, so day 31 cost 1.46–1.61×
day 30 (2-vCPU host); from the slack basis it costs ~0.75×.  The pin
holds day 31 to at most 1.25× day 30 and records per-day CPU seconds,
simplex iterations and the LP's shape in ``BENCH_planning_speed.json``.
"""

import time

import pytest

from repro.core.titan_next import PlanCache, day_e2e_bound_ms, predicted_demand_for_day
from repro.scenarios import build_scenario

pytestmark = pytest.mark.slow

DAYS = (30, 31)
MAX_LATER_DAY_RATIO = 1.25


def test_later_day_costs_no_more_than_first_day(record_bench):
    setup = build_scenario("global", daily_calls=50_000, top_n_configs=200)
    demand = {day: predicted_demand_for_day(setup, day) for day in DAYS}
    cache = PlanCache(setup)
    record_bench(columns=cache.num_variables, rows=cache.num_constraints)

    cpu_s = {}
    for day in DAYS:
        start = time.process_time()
        solved = cache.solve_day(demand[day], e2e_bound_ms=day_e2e_bound_ms(day))
        cpu_s[day] = time.process_time() - start
        assert solved.is_optimal
        record_bench(
            **{f"day{day}_cpu_s": round(cpu_s[day], 3), f"day{day}_iterations": solved.iterations}
        )

    ratio = cpu_s[DAYS[1]] / cpu_s[DAYS[0]]
    record_bench(later_day_ratio=round(ratio, 3))
    assert ratio <= MAX_LATER_DAY_RATIO, (
        f"day {DAYS[1]} took {cpu_s[DAYS[1]]:.2f} CPU-s against {cpu_s[DAYS[0]]:.2f} "
        f"for day {DAYS[0]} ({ratio:.2f}x > {MAX_LATER_DAY_RATIO}x)"
    )
