"""Integration tests: the full closed loop across subsystems.

The paper's architecture is a pipeline — measurements calibrate the
latency models, Titan probes capacities, Titan-Next consumes them to
plan, the controller assigns live calls.  These tests run the loop end
to end, with no pre-canned capacity book.
"""

import pytest

from repro.core.lp import JointAssignmentLp
from repro.core.scenario import Scenario, calibrate_compute_caps, estimate_pair_traffic_gbps
from repro.core.titan import SyntheticPathProber, Titan
from repro.core.titan_next import (
    EUROPE_EVAL_DCS,
    EuropeSetup,
    oracle_demand_for_day,
    run_prediction_day,
)
from repro.geo.world import default_world
from repro.net.latency import INTERNET, LatencyModel
from repro.net.loss import LossModel
from repro.workload.demand import ConfigUniverse, DemandModel

# Full closed-loop runs (Titan probing + LP planning + live control)
# dominate the suite's wall-clock; keep them out of the fast loop.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def closed_loop_setup():
    """Build the evaluation scenario from a real Titan run (no shortcuts)."""
    world = default_world()
    latency = LatencyModel(world)
    loss = LossModel(world)
    eu = [c.code for c in world.europe_countries]
    dcs = list(EUROPE_EVAL_DCS)

    universe = ConfigUniverse(world.europe_countries)
    demand = DemandModel(universe, daily_calls=5_000)
    traffic = estimate_pair_traffic_gbps(demand, eu, dcs, top_n_configs=50)

    prober = SyntheticPathProber(latency, loss)
    titan = Titan(
        world,
        prober,
        [(country, dc) for country in eu for dc in dcs],
        pair_traffic_gbps=lambda c, d: traffic[(c, d)],
    )
    book = titan.run(evaluations=14)

    caps = calibrate_compute_caps(world, dcs, demand, top_n_configs=50)
    scenario = Scenario(world, latency, eu, dcs, book, compute_caps=caps)
    return EuropeSetup(world, scenario, universe, demand, 50, book), titan


class TestClosedLoop:
    def test_titan_produced_usable_capacities(self, closed_loop_setup):
        setup, titan = closed_loop_setup
        fractions = [
            setup.capacity_book.fraction(c, d)
            for c in setup.scenario.country_codes
            for d in setup.scenario.dc_codes
        ]
        # Some pairs ramped meaningfully, and nothing exceeds the cap.
        assert max(fractions) > 0.05
        assert max(fractions) <= 0.20 + 1e-9

    def test_germany_contributes_no_internet_capacity(self, closed_loop_setup):
        setup, titan = closed_loop_setup
        total_de = sum(setup.capacity_book.gbps("DE", d) for d in setup.scenario.dc_codes)
        total_fr = sum(setup.capacity_book.gbps("FR", d) for d in setup.scenario.dc_codes)
        assert total_de < total_fr

    def test_lp_solves_on_titan_capacities(self, closed_loop_setup):
        setup, _ = closed_loop_setup
        demand = {
            k: v for k, v in oracle_demand_for_day(setup, day=2).items() if k[0] < 10
        }
        result = JointAssignmentLp(setup.scenario, demand).solve()
        assert result.is_optimal
        # Internet usage stays inside what Titan cleared.
        for (t, config, dc, option), count in result.assignment.items():
            if option != INTERNET:
                continue
            for country, _ in config.participants:
                assert setup.capacity_book.gbps(country, dc) > 0

    def test_prediction_pipeline_runs_on_titan_capacities(self, closed_loop_setup):
        setup, _ = closed_loop_setup
        results = run_prediction_day(setup, day=30, policies=("wrr", "titan-next"))
        peaks = {
            name: r.evaluate(setup.scenario).sum_of_peaks_gbps
            for name, r in results.items()
        }
        assert peaks["titan-next"] < peaks["wrr"]
