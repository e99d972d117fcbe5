"""Scenario-zoo suite: the RTT table, the fit, the factory, the sweeps.

Five contracts pinned here:

* the shipped RTT snapshot is well-formed — symmetric, plausible units,
  every key a known Azure region of a catalog DC;
* the calibration fit lands every covered, non-clamped (country, DC)
  corridor's *model* RTT within :data:`RTT_FIT_TOLERANCE_MS` of its
  published target — re-measured through the scenario the factory
  actually builds, not just through the fit's own bookkeeping;
* the factory is deterministic (same name + seed → byte-identical
  bundle) and its capacity books are stable under the disabled set
  (the stream regression ``build_europe_setup`` shipped a fix for);
* every registered scenario survives the process boundary: pickle
  round-trip, and a pooled sweep with compact results
  (``return_tables=False``) reproducing the serial loop byte for byte;
* every setup's config universe keeps to the scenario's countries,
  which is what lets replay reject any other country.
"""

import pickle

import pytest

from repro.core.sweep import SweepRunner
from repro.core.titan_next import build_europe_setup
from repro.experiments.registry import EXPERIMENTS, SCENARIO_EXPERIMENT_IDS
from repro.geo.world import default_world
from repro.net.latency import INTERNET
from repro.scenarios import (
    AZURE_REGION,
    RTT_FIT_TOLERANCE_MS,
    SCENARIO_SPECS,
    ScenarioFactory,
    build_scenario,
    covered_region_pairs,
    default_rtt_fit,
    dc_pair_rtt_ms,
    get_rtt_ms,
    scenario_names,
)
from tests.test_sweep_parallel import (
    assert_same_day_result,
    assert_same_evaluation,
    titan_next_days,
)

#: Construction knobs shared by the per-scenario tests: small enough for
#: the fast loop, large enough that every policy has real work to do.
FAST_SCALE = dict(daily_calls=2_000.0, top_n_configs=30)


@pytest.fixture(scope="module")
def zoo():
    """All four registered setups at fast-loop scale, built once."""
    factory = ScenarioFactory(**FAST_SCALE)
    return {name: factory.build(name) for name in factory.names}


class TestRttTable:
    def test_lookup_is_symmetric(self):
        for region_a, region_b in covered_region_pairs():
            forward = get_rtt_ms(region_a, region_b)
            assert forward is not None
            assert forward == get_rtt_ms(region_b, region_a)

    def test_same_region_and_uncovered_pairs_are_none(self):
        assert get_rtt_ms("westeurope", "westeurope") is None
        assert get_rtt_ms("westeurope", "not-a-region") is None

    def test_units_are_milliseconds_not_seconds_or_us(self):
        values = [get_rtt_ms(a, b) for a, b in covered_region_pairs()]
        # Real inter-region RTTs span ~4 ms (paired regions) to ~330 ms
        # (antipodal); anything outside screams a unit mixup.
        assert all(1.0 <= v <= 350.0 for v in values)

    def test_every_key_is_a_known_region_of_a_catalog_dc(self):
        world = default_world()
        assert set(AZURE_REGION) == {dc.code for dc in world.dcs}
        regions = set(AZURE_REGION.values())
        for region_a, region_b in covered_region_pairs():
            assert region_a in regions and region_b in regions
            assert region_a != region_b

    def test_dc_pair_lookup_goes_through_the_region_map(self):
        assert dc_pair_rtt_ms("westeurope", "uk-south") == get_rtt_ms("westeurope", "uksouth")
        assert dc_pair_rtt_ms("westeurope", "westeurope") is None


class TestRttCalibration:
    def test_fit_is_within_documented_tolerance(self):
        fit = default_rtt_fit()
        covered = [e for e in fit.entries if not e.clamped]
        assert len(covered) >= 50  # the zoo's corridors are really covered
        assert fit.max_unclamped_residual_ms <= RTT_FIT_TOLERANCE_MS

    def test_clamped_entries_sit_on_the_richness_bounds(self):
        fit = default_rtt_fit()
        clamped = [e for e in fit.entries if e.clamped]
        for entry in clamped:
            assert entry.richness in (-0.75, 1.25)

    def test_built_scenario_model_tracks_the_table(self, zoo):
        """The acceptance criterion, end to end: query the *scenario's*
        latency model (not the fit's bookkeeping) for every covered
        corridor inside the global scenario and compare to target."""
        setup = zoo["global"]
        model = setup.scenario.latency
        in_scope = set(setup.scenario.country_codes)
        fit = default_rtt_fit()
        checked = 0
        for entry in fit.entries:
            if entry.clamped or entry.country_code not in in_scope:
                continue
            rtt = model.base_rtt_ms(entry.country_code, entry.dc_code, INTERNET)
            assert rtt == pytest.approx(entry.target_ms, abs=RTT_FIT_TOLERANCE_MS)
            checked += 1
        assert checked >= 50

    def test_uncalibrated_build_skips_the_fit(self):
        fitted = build_scenario("apac", **FAST_SCALE)
        plain = build_scenario("apac", rtt_calibrated=False, **FAST_SCALE)
        fit = default_rtt_fit()
        entry = next(
            e
            for e in fit.entries
            if not e.clamped and e.country_code in set(fitted.scenario.country_codes)
        )
        pair = (entry.country_code, entry.dc_code, INTERNET)
        assert fitted.scenario.latency.base_rtt_ms(*pair) == pytest.approx(
            entry.target_ms, abs=RTT_FIT_TOLERANCE_MS
        )
        assert plain.scenario.latency.base_rtt_ms(*pair) != pytest.approx(
            fitted.scenario.latency.base_rtt_ms(*pair)
        )


class TestScenarioFactory:
    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("atlantis")

    def test_names_and_specs_agree(self):
        assert scenario_names() == list(SCENARIO_SPECS)
        for name, spec in SCENARIO_SPECS.items():
            assert spec.name == name
            assert spec.continents

    def test_registry_covers_every_scenario(self):
        assert SCENARIO_EXPERIMENT_IDS == [f"scenario-{name}" for name in scenario_names()]
        for experiment_id in SCENARIO_EXPERIMENT_IDS:
            assert experiment_id in EXPERIMENTS

    @pytest.mark.parametrize("name", list(SCENARIO_SPECS))
    def test_same_name_and_seed_is_byte_identical(self, name):
        first = build_scenario(name, seed=5, **FAST_SCALE)
        second = build_scenario(name, seed=5, **FAST_SCALE)
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_different_scenarios_have_decorrelated_streams(self, zoo):
        pairs = {
            name: (setup.scenario.country_codes[0], setup.scenario.dc_codes[0])
            for name, setup in zoo.items()
        }
        fractions = {
            name: zoo[name].capacity_book.fraction(*pair) for name, pair in pairs.items()
        }
        assert len(set(fractions.values())) > 1

    def test_capacity_book_is_stable_under_disabled_set(self):
        """The satellite-3 stream regression, on the factory path: the
        converged-fraction draw happens whether or not the pair is
        disabled, so disabling a country must not shift any other
        pair's fraction."""
        factory = ScenarioFactory(**FAST_SCALE)
        baseline = factory.build("apac")
        ablated = factory.build("apac", disabled_countries=("JP",))
        for country in baseline.scenario.country_codes:
            for dc in baseline.scenario.dc_codes:
                if country == "JP":
                    assert ablated.capacity_book.pair(country, dc).disabled
                    continue
                pair = (country, dc)
                base_book, abl_book = baseline.capacity_book, ablated.capacity_book
                assert abl_book.fraction(*pair) == base_book.fraction(*pair)
                assert abl_book.gbps(*pair) == base_book.gbps(*pair)

    def test_europe_setup_book_is_stable_under_disabled_set(self):
        """Same regression on ``build_europe_setup`` itself (the shipped
        fix): pre-fix, the draw was skipped for disabled pairs, so the
        disabled set shifted every later pair's stream position."""
        scale = dict(daily_calls=2_000.0, top_n_configs=30)
        base = build_europe_setup(disabled_countries=("DE",), **scale)
        more = build_europe_setup(disabled_countries=("DE", "AT"), **scale)
        for country in base.scenario.country_codes:
            if country in ("DE", "AT"):
                continue
            for dc in base.scenario.dc_codes:
                pair = (country, dc)
                assert more.capacity_book.fraction(*pair) == base.capacity_book.fraction(*pair)


class TestScenarioBundleShape:
    @pytest.mark.parametrize("name", list(SCENARIO_SPECS))
    def test_bundle_is_consistent(self, zoo, name):
        setup = zoo[name]
        spec = SCENARIO_SPECS[name]
        world = default_world()
        expected_countries = [
            c.code for continent in spec.continents for c in world.countries_in(continent)
        ]
        expected_dcs = [
            d.code for continent in spec.continents for d in world.dcs_in(continent)
        ]
        assert setup.scenario.country_codes == expected_countries
        assert setup.scenario.dc_codes == expected_dcs
        assert setup.scenario.wan_link_count >= len(expected_dcs) - 1
        assert setup.top_n_configs == FAST_SCALE["top_n_configs"]
        # Compute caps were calibrated for exactly the scenario's DCs.
        assert set(setup.scenario.compute_caps) == set(expected_dcs)

    def test_global_scenario_spans_the_whole_catalog(self, zoo):
        world = default_world()
        setup = zoo["global"]
        assert len(setup.scenario.country_codes) == len(world.countries)
        assert len(setup.scenario.dc_codes) == len(world.dcs)

    @pytest.mark.parametrize("name", list(SCENARIO_SPECS))
    def test_setup_pickle_round_trips(self, zoo, name):
        clone = pickle.loads(pickle.dumps(zoo[name]))
        assert clone.scenario.country_codes == zoo[name].scenario.country_codes
        assert clone.scenario.dc_codes == zoo[name].scenario.dc_codes
        country = clone.scenario.country_codes[0]
        dc = clone.scenario.dc_codes[0]
        assert clone.scenario.latency.base_rtt_ms(
            country, dc, INTERNET
        ) == zoo[name].scenario.latency.base_rtt_ms(country, dc, INTERNET)


class TestScenarioTraffic:
    @pytest.mark.parametrize("name", ["europe"] + list(SCENARIO_SPECS))
    def test_every_config_country_is_a_scenario_country(self, name):
        """Replay and scoring reject a config country outside the
        scenario (``KeyError``), so every config a setup's universe can
        emit keeps to the scenario's client countries."""
        setup = build_europe_setup() if name == "europe" else build_scenario(name)
        emitted = {
            country for demand in setup.universe.demands for country in demand.config.countries
        }
        assert emitted <= set(setup.scenario.country_codes)


class TestScenarioSweeps:
    """Every registered setup through the process boundary, fast form."""

    @pytest.mark.parametrize("name", list(SCENARIO_SPECS))
    def test_pooled_sweep_reproduces_serial(self, zoo, name):
        setup = zoo[name]
        days = [30]
        serial = titan_next_days(SweepRunner(setup, workers=1), days, evaluate=True)
        runner = SweepRunner(setup, workers=2)
        parallel = titan_next_days(runner, days, evaluate=True, return_tables=False)
        for day in days:
            assert_same_day_result(parallel[day], serial[day])
            assert_same_evaluation(parallel[day].evaluation, serial[day].evaluation)


class TestScenarioSmoke:
    """Fast-loop smoke: every registry scenario id runs one oracle day."""

    @pytest.mark.parametrize("name", list(SCENARIO_SPECS))
    def test_every_registered_scenario_runs_an_oracle_day(self, zoo, name):
        from repro.core.titan_next import run_oracle_day

        results = run_oracle_day(zoo[name], day=2)
        peaks = {policy: r.sum_of_peaks_gbps for policy, r in results.items()}
        assert set(peaks) == {"wrr", "titan", "lf", "titan-next"}
        assert all(v > 0 for v in peaks.values())
        assert peaks["titan-next"] <= peaks["wrr"]


@pytest.mark.slow
class TestScenarioEndToEnd:
    """The acceptance sweep: §7 oracle day + §8 prediction day through
    ``SweepRunner`` on every scenario, serial ≡ parallel (workers=4)
    byte for byte."""

    @pytest.mark.parametrize("name", list(SCENARIO_SPECS))
    def test_oracle_and_prediction_day_serial_equals_parallel(self, zoo, name):
        setup = zoo[name]

        serial_runner = SweepRunner(setup, workers=1)
        parallel_runner = SweepRunner(setup, workers=4)
        oracle_serial = serial_runner.run_oracle_days([2])
        oracle_parallel = parallel_runner.run_oracle_days([2])
        assert set(oracle_parallel) == set(oracle_serial)
        for day, results in oracle_serial.items():
            assert set(oracle_parallel[day]) == set(results)
            for policy, result in results.items():
                assert_same_evaluation(oracle_parallel[day][policy], result)

        days = [30]
        pred_serial = serial_runner.run_prediction_window(days, evaluate=True)
        pred_parallel = parallel_runner.run_prediction_window(days, evaluate=True)
        for day in days:
            assert set(pred_parallel[day]) == set(pred_serial[day])
            for policy in pred_serial[day]:
                assert_same_day_result(pred_parallel[day][policy], pred_serial[day][policy])
                assert_same_evaluation(
                    pred_parallel[day][policy].evaluation,
                    pred_serial[day][policy].evaluation,
                )
