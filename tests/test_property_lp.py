"""Property-based tests: LP invariants under randomized demand."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.net.latency import INTERNET, WAN
from repro.solver.model import LinearProgram, LinExpr
from repro.solver.simplex import solve_simplex
from repro.workload.configs import CallConfig
from repro.workload.media import AUDIO, SCREENSHARE, VIDEO

EU_COUNTRIES = ["GB", "FR", "NL", "IT", "ES", "PL", "SE", "CH", "IE", "BE"]

config_st = st.builds(
    lambda counts, media: CallConfig.from_counts(counts, media),
    counts=st.dictionaries(
        st.sampled_from(EU_COUNTRIES), st.integers(min_value=1, max_value=4), min_size=1, max_size=2
    ),
    media=st.sampled_from([AUDIO, SCREENSHARE, VIDEO]),
)

demand_st = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), config_st),
    st.integers(min_value=1, max_value=60),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(demand=demand_st)
def test_lp_constraints_hold_for_random_demand(small_setup, demand):
    """C1-C5 hold for arbitrary feasible demand tables."""
    from hypothesis import assume

    demand = {k: float(v) for k, v in demand.items()}
    # Keep the random instance within provisioned compute (otherwise
    # "infeasible" is the correct answer, tested elsewhere).
    total_caps = sum(small_setup.scenario.compute_caps.values())
    for t in {k[0] for k in demand}:
        need = sum(
            v * c.compute_cores() for (tt, c), v in demand.items() if tt == t
        )
        assume(need <= 0.9 * total_caps)
    lp = JointAssignmentLp(small_setup.scenario, demand, JointLpOptions(e2e_bound_ms=200.0))
    result = lp.solve()
    assert result.is_optimal
    scenario = small_setup.scenario

    # C1: every (t, c) fully assigned.
    for (t, config), count in demand.items():
        assigned = sum(
            v for (tt, c, _, _), v in result.assignment.items() if tt == t and c == config
        )
        assert assigned == pytest.approx(count, rel=1e-6, abs=1e-5)

    # Non-negativity and column legality.
    for (t, config, dc, option), v in result.assignment.items():
        assert v > 0
        assert dc in scenario.dc_codes
        assert option in (WAN, INTERNET)
        if option == INTERNET:
            for country, _ in config.participants:
                assert scenario.internet_cap_gbps(country, dc) > 0

    # C3: per-pair Internet capacity never exceeded.
    for t in {k[0] for k in demand}:
        for country in EU_COUNTRIES:
            for dc in scenario.dc_codes:
                used = sum(
                    v * c.country_bandwidth_gbps(country)
                    for (tt, c, d, option), v in result.assignment.items()
                    if tt == t and d == dc and option == INTERNET
                )
                assert used <= scenario.internet_cap_gbps(country, dc) * (1 + 1e-6) + 1e-9

    # Objective equals independently recomputed sum of link peaks
    # (up to the locality epsilon term).
    from repro.analysis.metrics import evaluate_assignment

    evaluated = evaluate_assignment(scenario, result.assignment)
    assert evaluated.sum_of_peaks_gbps == pytest.approx(result.sum_of_peaks(), rel=1e-4, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_simplex_agrees_with_highs_on_random_assignment_lps(n, seed):
    """Small random transportation-style LPs: both backends agree."""
    rng = np.random.default_rng(seed)
    costs = rng.uniform(1.0, 10.0, size=(n, n))
    supply = rng.uniform(5.0, 20.0, size=n)
    demand = supply * rng.uniform(0.3, 0.9)  # always satisfiable

    lp = LinearProgram()
    ship = {}
    for i in range(n):
        for j in range(n):
            ship[(i, j)] = lp.add_variable(f"s{i}_{j}")
    for i in range(n):
        row = LinExpr()
        for j in range(n):
            row.add_term(ship[(i, j)])
        lp.add_constraint(row <= float(supply[i]))
    for j in range(n):
        col = LinExpr()
        for i in range(n):
            col.add_term(ship[(i, j)])
        lp.add_constraint(col == float(demand[j]))
    objective = LinExpr()
    for (i, j), var in ship.items():
        objective.add_term(var, float(costs[i, j]))
    lp.set_objective(objective)

    simplex = solve_simplex(lp)
    highs = lp.solve()
    assert simplex.status == "optimal"
    assert highs.status == "optimal"
    assert simplex.objective == pytest.approx(highs.objective, rel=1e-5, abs=1e-6)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_infeasible_detection_agrees(seed):
    """Randomly over-constrained LPs: both backends say infeasible."""
    rng = np.random.default_rng(seed)
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    a = float(rng.uniform(1, 5))
    lp.add_constraint(x + y <= a)
    lp.add_constraint(x + y >= a + float(rng.uniform(0.5, 3)))
    lp.set_objective(x + y)
    assert solve_simplex(lp).status == "infeasible"
    assert lp.solve().status == "infeasible"


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    factor=st.floats(min_value=0.0, max_value=3.0),
)
def test_more_internet_capacity_never_hurts(small_setup, factor):
    """Sum-of-peaks is monotone non-increasing in Internet capacity."""
    from repro.core.titan_next import oracle_demand_for_day

    demand = {
        k: v for k, v in oracle_demand_for_day(small_setup, day=2).items() if k[0] in (18, 19)
    }
    base = JointAssignmentLp(small_setup.scenario, demand).solve()
    scaled = JointAssignmentLp(
        small_setup.scenario, demand, JointLpOptions(internet_capacity_factor=1.0 + factor)
    ).solve()
    assert scaled.sum_of_peaks() <= base.sum_of_peaks() * (1 + 1e-6) + 1e-9
