"""Equivalence and determinism suite for the parallel sweep engine.

The fan-out contract: because every random draw in the §7/§8 pipeline
is counter-based Philox keyed on ``(seed, config, slot)``, per-day work
is a pure function of ``(setup, day, seed)`` — so a
:class:`~repro.core.sweep.SweepRunner` must reproduce the serial loop
*exactly* (same realized tables, same stats, same scores) for any
worker count and any day order.  This file pins that contract;
``benchmarks/test_sweep_speed.py`` pins the speedup.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.metrics import evaluate_batch
from repro.core import InsufficientHistory
from repro.core.sweep import SweepRunner, available_workers
from repro.core.titan_next import oracle_demand_for_day, run_oracle_day, run_prediction_day
from repro.scenarios import build_scenario
from repro.workload.traces import TraceGenerator

DAYS = [30, 31, 32]
#: The scenario zoo, next to the Europe box, for the window ≡ single-day pins.
ZOO = ("emea", "americas", "apac", "global")


def titan_next_days(runner, days, **kwargs):
    """Titan-Next's results over a §8 window, keyed by day."""
    window = runner.run_prediction_window(days, policies=("titan-next",), **kwargs)
    return {day: results["titan-next"] for day, results in window.items()}


def assert_same_day_result(actual, expected):
    """Two PredictionDayResults realized the identical stream."""
    assert actual.stats == expected.stats
    assert actual.realized_table() == expected.realized_table()
    a, b = actual.assignments, expected.assignments
    assert np.array_equal(a.initial_dc_idx, b.initial_dc_idx)
    assert np.array_equal(a.initial_option_idx, b.initial_option_idx)
    assert np.array_equal(a.final_dc_idx, b.final_dc_idx)
    assert np.array_equal(a.final_option_idx, b.final_option_idx)


def assert_same_evaluation(actual, expected):
    """Two EvaluationResults carry byte-identical §7.1 metrics."""
    assert np.array_equal(actual.wan.dense, expected.wan.dense)
    assert actual.internet_loads == expected.internet_loads
    assert np.array_equal(actual.e2e_values, expected.e2e_values)
    assert np.array_equal(actual.e2e_weights, expected.e2e_weights)
    assert actual.total_calls == expected.total_calls
    assert actual.wan_edge_traffic == expected.wan_edge_traffic


@pytest.fixture(scope="module")
def serial_sweep(small_setup):
    """The pinned serial reference for the §8 sweep equivalence tests."""
    return titan_next_days(SweepRunner(small_setup, workers=1), DAYS)


class TestPredictionSweepEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_workers_reproduce_serial(self, small_setup, serial_sweep, workers):
        parallel = titan_next_days(SweepRunner(small_setup, workers=workers), DAYS)
        assert set(parallel) == set(serial_sweep)
        for day in DAYS:
            assert_same_day_result(parallel[day], serial_sweep[day])

    def test_parallel_scores_match_serial(self, small_setup, serial_sweep):
        runner = SweepRunner(small_setup, workers=2)
        window = runner.run_prediction_window(DAYS, policies=("titan-next",), evaluate=True)
        for day in DAYS:
            in_pool = window[day]["titan-next"].evaluation
            assert in_pool is not None
            assert_same_evaluation(in_pool, serial_sweep[day].evaluate(small_setup.scenario))

    def test_evaluate_recomputes_even_with_pooled_score(self, small_setup):
        """evaluate() must never hand back the pooled score for a
        scenario it was not computed against — it always re-scores."""
        runner = SweepRunner(small_setup, workers=2)
        window = runner.run_prediction_window([30], policies=("lf",), evaluate=True)
        result = window[30]["lf"]
        recomputed = result.evaluate(small_setup.scenario)
        assert recomputed is not result.evaluation
        assert_same_evaluation(recomputed, result.evaluation)


class TestPredictionWindow:
    @pytest.mark.parametrize("name", ["europe", *ZOO])
    def test_window_matches_run_prediction_day(self, small_setup, name):
        """A window's day is run_prediction_day's, bit for bit, for every
        policy: placements, stats and scores.  The single days plan on a
        cold copy of the setup, so both sides run HiGHS instead of one
        reading the other's memo."""
        setup = (
            small_setup
            if name == "europe"
            else build_scenario(name, daily_calls=5_000, top_n_configs=40)
        )
        days = [30, 31]
        window = SweepRunner(setup, workers=2).run_prediction_window(days, evaluate=True)
        single = replace(setup)
        for day in days:
            reference = run_prediction_day(single, day)
            assert set(window[day]) == set(reference)
            for policy in reference:
                assert_same_day_result(window[day][policy], reference[policy])
                assert_same_evaluation(
                    window[day][policy].evaluation, reference[policy].evaluate(setup.scenario)
                )

    def test_baseline_only_window_skips_planning(self, small_setup):
        window = SweepRunner(small_setup).run_prediction_window([30], policies=("wrr", "lf"))
        reference = run_prediction_day(small_setup, 30, policies=("wrr", "lf"))
        for name in ("wrr", "lf"):
            assert_same_day_result(window[30][name], reference[name])

    def test_empty_window_with_titan_next_raises(self, small_setup):
        with pytest.raises(ValueError):
            SweepRunner(small_setup).run_prediction_window([], policies=("titan-next",))


class TestOracleWeekEquivalence:
    def test_workers_reproduce_serial(self, small_setup):
        serial = SweepRunner(small_setup, workers=1).run_oracle_days(range(2, 5))
        parallel = SweepRunner(small_setup, workers=2).run_oracle_days(range(2, 5))
        assert set(parallel) == set(serial)
        for day, results in serial.items():
            assert set(parallel[day]) == set(results)
            for name in results:
                assert_same_evaluation(parallel[day][name], results[name])
        # A single oracle day, planned on a cold copy, is the window's day.
        single = run_oracle_day(replace(small_setup), 2)
        assert set(single) == set(serial[2])
        for name in single:
            assert_same_evaluation(single[name], serial[2][name])


class TestDayOrderIndependence:
    """The Philox counter-keying contract the fan-out relies on.

    Trace synthesis and controller replay must not depend on which
    days were generated before: results keyed by day are unchanged
    under any permutation of the day list, whether one generator is
    reused across days (the per-worker scheme) or each day gets a
    fresh one (the old serial scheme).
    """

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(order=st.permutations(DAYS))
    def test_call_table_synthesis_is_day_order_independent(self, small_setup, order):
        shared = TraceGenerator(
            small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=71
        )
        tables = {day: shared.table_for_day(day) for day in order}
        for day in DAYS:
            fresh = TraceGenerator(
                small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=71
            ).table_for_day(day)
            assert np.array_equal(tables[day].config_idx, fresh.config_idx)
            assert np.array_equal(tables[day].start_slot, fresh.start_slot)
            assert np.array_equal(tables[day].duration_slots, fresh.duration_slots)
            assert np.array_equal(tables[day].first_joiner_idx, fresh.first_joiner_idx)

    @settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(order=st.permutations(DAYS))
    def test_controller_replay_is_day_order_independent(self, small_setup, order):
        runner = SweepRunner(small_setup, workers=1)
        shuffled = runner.replay_days(order, policies=("lf",))
        for day in DAYS:
            isolated = SweepRunner(small_setup, workers=1).replay_days([day], policies=("lf",))
            assert_same_day_result(shuffled[day]["lf"], isolated[day]["lf"])

    def test_sweep_day_results_unchanged_under_shuffled_days(self, small_setup, serial_sweep):
        shuffled = titan_next_days(SweepRunner(small_setup), [32, 30, 31])
        for day in DAYS:
            assert_same_day_result(shuffled[day], serial_sweep[day])


class TestRunnerKnobs:
    def test_rejects_bad_workers(self, small_setup):
        with pytest.raises(ValueError):
            SweepRunner(small_setup, workers=0)

    def test_auto_workers_resolves_to_cpus(self, small_setup):
        runner = SweepRunner(small_setup, workers="auto")
        assert runner.workers == available_workers()
        assert runner.workers >= 1


class TestInputErrors:
    """A pooled sweep raises the serial path's typed input errors as is."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_insufficient_history_is_raised_not_retried(self, small_setup, workers):
        runner = SweepRunner(small_setup, workers=workers)
        with pytest.raises(InsufficientHistory) as excinfo:
            runner.run_prediction_window([10, 11], policies=("titan-next",))
        assert excinfo.value.day == 10
        assert excinfo.value.history_weeks == 4
        assert runner.fault_log == []

    def test_insufficient_history_pickles_with_its_fields(self):
        error = pickle.loads(pickle.dumps(InsufficientHistory(10, 4)))
        assert isinstance(error, InsufficientHistory)
        assert isinstance(error, ValueError)
        assert (error.day, error.history_weeks) == (10, 4)
        assert str(error) == "day 10 does not leave 4 weeks of history"


class TestSetupPickling:
    def test_scenario_pickle_drops_id_keyed_eval_cache(self, small_setup):
        demand = oracle_demand_for_day(small_setup, day=2)
        small_setup.scenario.eval_tables(tuple({c for _, c in demand}))
        assert small_setup.scenario._eval_tables
        clone = pickle.loads(pickle.dumps(small_setup.scenario))
        # The id-keyed cache must not travel: ids are meaningless (and
        # collision-prone) in the unpickling process.
        assert clone._eval_tables == {}
        assert clone._link_csr is None

    def test_unpickled_setup_scores_identically(self, small_setup):
        clone = pickle.loads(pickle.dumps(small_setup))
        demand = oracle_demand_for_day(small_setup, day=2)
        clone_demand = oracle_demand_for_day(clone, day=2)
        assert clone_demand == demand
        from repro.core.policies import LocalityFirstPolicy

        ours = evaluate_batch(
            small_setup.scenario, LocalityFirstPolicy(small_setup.scenario).assign(demand), "lf"
        )
        theirs = evaluate_batch(
            clone.scenario, LocalityFirstPolicy(clone.scenario).assign(clone_demand), "lf"
        )
        assert_same_evaluation(theirs, ours)
