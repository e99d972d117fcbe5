"""Equivalence suite for the vectorized evaluation engine (ISSUE 4).

``evaluate_batch`` must reproduce the pinned scalar reference
``evaluate_assignment`` on oracle-mode assignment tables and on
prediction-mode :class:`AssignmentBatch` outputs — sum of peaks, total
traffic, internet share, and the weighted latency statistics — plus
unit tests for the dense :class:`LoadMatrix` backend and regression
tests for the metrics/cost-layer bugfixes that rode along.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.cost import GCP_SINGAPORE, compare_costs, cost_of, internet_traffic_gb
from repro.analysis.metrics import EvaluationResult, LoadMatrix, evaluate_batch
from repro.analysis.stats import weighted_percentile, weighted_percentiles
from repro.core.policies import LocalityFirstPolicy, TitanNextPolicy, WrrPolicy
from repro.core.titan_next import oracle_demand_for_day, run_prediction_day
from tests.scalar_reference import evaluate_assignment

DAY = 2
PREDICTION_DAY = 30  # needs >= 4 weeks of history


def assert_equivalent(batch, scalar):
    """Batch and scalar results agree on every §7.1 metric."""
    rel = dict(rel=1e-9, abs=1e-12)
    assert batch.total_calls == pytest.approx(scalar.total_calls, **rel)
    assert batch.sum_of_peaks_gbps == pytest.approx(scalar.sum_of_peaks_gbps, **rel)
    assert batch.total_wan_traffic == pytest.approx(scalar.total_wan_traffic, **rel)
    assert batch.wan_edge_traffic == pytest.approx(scalar.wan_edge_traffic, **rel)
    assert batch.internet_share == pytest.approx(scalar.internet_share, **rel)
    assert batch.mean_e2e_ms() == pytest.approx(scalar.mean_e2e_ms(), **rel)
    assert batch.median_e2e_ms() == pytest.approx(scalar.median_e2e_ms(), **rel)
    assert batch.percentile_e2e_ms(95) == pytest.approx(scalar.percentile_e2e_ms(95), **rel)
    # Full load matrices, entry for entry (dict views skip zeros, so
    # shapes need not match; contents must).
    assert set(batch.wan.loads) == set(scalar.wan.loads)
    for key, value in scalar.wan.loads.items():
        assert batch.wan.loads[key] == pytest.approx(value, **rel)
    assert set(batch.internet_loads) == set(scalar.internet_loads)
    for key, value in scalar.internet_loads.items():
        assert batch.internet_loads[key] == pytest.approx(value, **rel)


@pytest.fixture(scope="module")
def oracle_tables(small_setup):
    demand = oracle_demand_for_day(small_setup, DAY)
    policies = (
        WrrPolicy(small_setup.scenario),
        LocalityFirstPolicy(small_setup.scenario),
        TitanNextPolicy(small_setup.scenario),
    )
    return {policy.name: policy.assign(demand) for policy in policies}


class TestBatchEquivalence:
    def test_oracle_day_tables(self, small_setup, oracle_tables):
        for name, table in oracle_tables.items():
            scalar = evaluate_assignment(small_setup.scenario, table, name)
            batch = evaluate_batch(small_setup.scenario, table, name)
            assert_equivalent(batch, scalar)

    def test_prediction_day_batches(self, small_setup):
        results = run_prediction_day(small_setup, PREDICTION_DAY)
        for name, outcome in results.items():
            scalar = evaluate_assignment(
                small_setup.scenario, outcome.realized_table(), name
            )
            batch = evaluate_batch(small_setup.scenario, outcome.assignments, name)
            assert_equivalent(batch, scalar)
            # The PredictionDayResult convenience wrapper is the same path.
            assert outcome.evaluate(
                small_setup.scenario
            ).sum_of_peaks_gbps == pytest.approx(batch.sum_of_peaks_gbps)

    def test_empty_inputs(self, small_setup):
        result = evaluate_batch(small_setup.scenario, {}, "empty")
        assert result.total_calls == 0.0
        assert result.sum_of_peaks_gbps == 0.0
        assert result.internet_loads == {}
        assert result.mean_e2e_ms() == 0.0

    def test_nonpositive_counts_skipped(self, small_setup, oracle_tables):
        table = dict(next(iter(oracle_tables.values())))
        key = next(iter(table))
        table[key] = 0.0
        scalar = evaluate_assignment(small_setup.scenario, table, "x")
        batch = evaluate_batch(small_setup.scenario, table, "x")
        assert_equivalent(batch, scalar)


class TestLoadMatrixDense:
    def test_dense_backend_reductions(self):
        matrix = LoadMatrix()
        matrix.add(0, 0, 5.0)
        matrix.add(0, 1, 3.0)
        matrix.add(2, 0, 2.0)
        assert matrix.shape == (3, 2)
        assert matrix.link_peak(0) == 5.0
        assert matrix.link_peak(1) == 0.0  # present row, never loaded
        assert matrix.sum_of_peaks() == 7.0
        assert matrix.total_traffic() == 10.0
        assert matrix.slot_load(0) == 7.0
        assert matrix.slot_load(99) == 0.0

    def test_add_accumulates_and_grows(self):
        matrix = LoadMatrix()
        matrix.add(1, 1, 1.0)
        matrix.add(1, 1, 2.0)
        assert matrix.link_peak(1) == 3.0
        matrix.add(4, 7, 1.0)  # grows without losing prior loads
        assert matrix.shape == (5, 8)
        assert matrix.link_peak(1) == 3.0

    def test_loads_dict_view(self):
        matrix = LoadMatrix()
        matrix.add(0, 0, 1.5)
        matrix.add(3, 2, 2.5)
        assert matrix.loads == {(0, 0): 1.5, (3, 2): 2.5}

    def test_init_from_mapping(self):
        matrix = LoadMatrix({(0, 0): 1.0, (1, 2): 4.0})
        assert matrix.sum_of_peaks() == 5.0

    def test_from_dense(self):
        dense = np.array([[1.0, 2.0], [0.0, 3.0]])
        matrix = LoadMatrix.from_dense(dense)
        assert matrix.sum_of_peaks() == 5.0
        assert matrix.total_traffic() == 6.0
        assert matrix.loads == {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0}
        with pytest.raises(ValueError):
            LoadMatrix.from_dense(np.zeros(3))

    def test_negative_indices_rejected(self):
        matrix = LoadMatrix()
        with pytest.raises(ValueError):
            matrix.add(-1, 0, 1.0)
        with pytest.raises(ValueError):
            matrix.add(0, -1, 1.0)


class TestWanEdgeTrafficField:
    """Regression: ``wan_edge_traffic`` is a real dataclass field."""

    def test_is_dataclass_field(self):
        assert "wan_edge_traffic" in {f.name for f in dataclasses.fields(EvaluationResult)}

    def test_survives_replace(self, small_setup, oracle_tables):
        result = evaluate_batch(small_setup.scenario, oracle_tables["titan-next"], "tn")
        assert result.wan_edge_traffic > 0
        copy = dataclasses.replace(result, policy="copy")
        assert copy.wan_edge_traffic == result.wan_edge_traffic
        assert copy.internet_share == result.internet_share

    def test_internet_share_uses_field(self):
        result = EvaluationResult(
            policy="x",
            wan=LoadMatrix(),
            internet_loads={(("DE", "westeurope"), 0): 1.0},
            wan_edge_traffic=3.0,
        )
        assert result.internet_share == pytest.approx(0.25)


class TestCostSlotSeconds:
    """Regression: ``internet_traffic_gb`` honors ``slots_per_day``."""

    @staticmethod
    def _result(gbps=8.0):
        return EvaluationResult(
            policy="x",
            wan=LoadMatrix(),
            internet_loads={(("FR", "westeurope"), 0): gbps},
        )

    def test_slot_seconds_derived(self):
        result = self._result(8.0)
        # 48 slots/day -> 1800 s slots: 8 Gbps * 1800 / 8 = 1800 GB.
        assert internet_traffic_gb(result) == pytest.approx(1800.0)
        assert internet_traffic_gb(result, slots_per_day=24) == pytest.approx(3600.0)
        assert internet_traffic_gb(result, slots_per_day=96) == pytest.approx(900.0)
        with pytest.raises(ValueError):
            internet_traffic_gb(result, slots_per_day=0)

    def test_threaded_through_cost_of(self):
        result = self._result(8.0)
        report = cost_of(result, slots_per_day=24)
        expected_gb = internet_traffic_gb(result, slots_per_day=24)
        assert report.internet_egress_cost == pytest.approx(
            expected_gb * GCP_SINGAPORE.internet_per_gb
        )
        assert report.counterfactual_wan_cost == pytest.approx(
            expected_gb * GCP_SINGAPORE.wan_per_gb_equivalent
        )

    def test_threaded_through_compare_costs(self):
        results = {"wrr": self._result(8.0), "tn": self._result(4.0)}
        table = compare_costs(results, reference="wrr", slots_per_day=24)
        assert table["tn"]["internet_egress_cost"] == pytest.approx(
            internet_traffic_gb(results["tn"], slots_per_day=24)
            * GCP_SINGAPORE.internet_per_gb
        )

    def test_dead_helper_deleted(self):
        from repro.analysis import cost

        assert not hasattr(cost, "_slot_hours")


class TestFig14Labels:
    """Regression: Fig 14 rows cover every day, labeled by weekday."""

    @staticmethod
    def _week(days):
        def fake(peaks):
            return SimpleNamespace(sum_of_peaks_gbps=peaks)

        return {
            day: {"wrr": fake(10.0), "lf": fake(8.0), "titan-next": fake(7.0)}
            for day in days
        }

    def test_all_days_kept_when_not_seven(self):
        from repro.experiments.eval_exps import fig14_measured

        days = list(range(2, 11))  # 9 days — the old zip() dropped two
        measured = fig14_measured(self._week(days))
        rows = measured["normalized_peaks_by_day"]
        assert len(rows) == len(days)

    def test_rows_labeled_by_actual_weekday(self):
        from repro.experiments.eval_exps import WEEKDAY_LABELS, fig14_measured, weekday_label

        days = [2, 5, 9]  # Wed, Sat, Wed of the next week
        measured = fig14_measured(self._week(days))
        assert list(measured["normalized_peaks_by_day"]) == [
            "Wed (day 2)", "Sat (day 5)", "Wed (day 9)",
        ]
        assert weekday_label(5) == "Sat" and weekday_label(6) == "Sun"
        assert WEEKDAY_LABELS[2 % 7] == "Wed"  # Fig 14 starts on a Wednesday

    def test_weekend_days_excluded_from_weekday_savings(self):
        from repro.experiments.eval_exps import fig14_measured

        measured = fig14_measured(self._week([4, 5, 6]))  # Fri, Sat, Sun
        assert len(measured["tn_savings_vs_wrr_weekdays"]) == 1


class TestWeightedPercentiles:
    def test_multi_q_matches_scalar(self):
        values = [10.0, 20.0, 30.0, 40.0]
        weights = [1.0, 2.0, 3.0, 4.0]
        multi = weighted_percentiles(values, weights, [25, 50, 95])
        for q, got in zip([25, 50, 95], multi):
            assert got == weighted_percentile(values, weights, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_percentiles([1.0], [1.0], [101.0])
        with pytest.raises(ValueError):
            weighted_percentiles([], [], [50.0])
