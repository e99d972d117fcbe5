"""Result-channel suite: compact day summaries, streaming, eval caches.

Two contracts layered on the parallel sweep engine:

* compact :class:`~repro.core.sweep.DaySummary` results
  (``return_tables=False``) reproduce the serial reference byte for
  byte for any worker count, and reconstruct the full per-day tables
  on demand (Philox counter-keying makes the reconstruction exact, not
  approximate);
* ``chunk_days`` / ``iter_days`` stream long windows chunk by chunk
  with identical results to the monolithic window.
"""

import pickle

import pytest

from repro.core.sweep import SummaryDayResult, SweepRunner
from repro.experiments.eval_exps import fig15_measured, run_fig15, run_fig18_sweep
from tests.test_sweep_parallel import (
    assert_same_day_result,
    assert_same_evaluation,
    titan_next_days,
)

DAYS = [30, 31, 32]


@pytest.fixture(scope="module")
def serial_reference(small_setup):
    """The pinned serial sweep every compact run must reproduce."""
    return titan_next_days(SweepRunner(small_setup, workers=1), DAYS, evaluate=True)


class TestEvalTableCache:
    """FIFO eviction order and the pickling contract."""

    def _config_slices(self, setup, n):
        configs = tuple(item.config for item in setup.universe.top(setup.top_n_configs))
        return [configs[: i + 2] for i in range(n)]

    def test_fifo_evicts_oldest_insertion_not_least_recent_use(self, small_setup):
        scenario = small_setup.scenario
        c1, c2, c3 = self._config_slices(small_setup, 3)
        saved = dict(scenario._eval_tables)
        scenario._eval_tables.clear()
        scenario.EVAL_TABLE_CACHE_SIZE = 2  # instance attr shadows the class cap
        try:
            t1 = scenario.eval_tables(c1)
            t2 = scenario.eval_tables(c2)
            assert scenario.eval_tables(c1) is t1  # hit does not reorder (FIFO, not LRU)
            t3 = scenario.eval_tables(c3)  # cap reached: evicts c1, the oldest insertion
            assert scenario.eval_tables(c2) is t2
            assert scenario.eval_tables(c3) is t3
            assert scenario.eval_tables(c1) is not t1  # was evicted, rebuilt fresh
        finally:
            del scenario.EVAL_TABLE_CACHE_SIZE
            scenario._eval_tables.clear()
            scenario._eval_tables.update(saved)

    def test_getstate_drops_eval_and_csr_caches(self, small_setup):
        scenario = small_setup.scenario
        configs = tuple(item.config for item in small_setup.universe.top(10))
        scenario.eval_tables(configs)
        scenario.link_incidence_csr()
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone._eval_tables == {}
        assert clone._link_csr is None

    def test_process_payload_uses_highest_pickle_protocol(self, small_setup):
        runner = SweepRunner(small_setup, workers=2)
        with runner.worker_pool(len(DAYS)) as handle:
            assert handle._payload[:2] == bytes([0x80, pickle.HIGHEST_PROTOCOL])


class TestCompactResults:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_compact_workers_reproduce_serial(self, small_setup, serial_reference, workers):
        runner = SweepRunner(small_setup, workers=workers)
        results = titan_next_days(runner, DAYS, evaluate=True, return_tables=False)
        for day in DAYS:
            assert isinstance(results[day], SummaryDayResult)
            assert_same_day_result(results[day], serial_reference[day])
            assert_same_evaluation(results[day].evaluation, serial_reference[day].evaluation)

    def test_summary_reconstructs_full_tables_exactly(self, small_setup, serial_reference):
        runner = SweepRunner(small_setup, workers=2)
        results = titan_next_days(runner, DAYS, return_tables=False)
        for day in DAYS:
            summary = results[day]
            assert isinstance(summary, SummaryDayResult)
            # realized table straight from the compact rows …
            assert summary.realized_table() == serial_reference[day].realized_table()
            # … and the full per-call batch via Philox reconstruction.
            full = summary.full_result()
            assert_same_day_result(full, serial_reference[day])
            assert_same_evaluation(
                summary.evaluate(small_setup.scenario),
                serial_reference[day].evaluate(small_setup.scenario),
            )

    def test_inline_compact_summaries_match_serial(self, small_setup, serial_reference):
        """``workers=1`` summarizes inline (``run_fig15``'s default path)."""
        runner = SweepRunner(small_setup, workers=1)
        results = titan_next_days(runner, DAYS, return_tables=False)
        for day in DAYS:
            assert isinstance(results[day], SummaryDayResult)
            assert results[day].evaluation is None
            assert_same_day_result(results[day], serial_reference[day])

    def test_all_policy_window_matches_serial(self, small_setup):
        serial = SweepRunner(small_setup, workers=1).run_prediction_window(DAYS, evaluate=True)
        compact = SweepRunner(small_setup, workers=2).run_prediction_window(
            DAYS, evaluate=True, return_tables=False
        )
        for day in DAYS:
            assert set(compact[day]) == set(serial[day])
            for name in serial[day]:
                assert_same_day_result(compact[day][name], serial[day][name])
                assert_same_evaluation(compact[day][name].evaluation, serial[day][name].evaluation)

    def test_fig15_reads_compact_window_like_full_results(self, small_setup):
        """``run_fig15`` ships summaries; its rows equal the full-result ones."""
        full = SweepRunner(small_setup).run_prediction_window(range(30, 32), evaluate=True)
        expected = fig15_measured(full, small_setup.scenario)
        assert run_fig15(setup=small_setup, days=2, workers=2).measured == expected

    def test_fig18_sweep_pooled_chunked_rows_match_serial(self, small_setup):
        """``run_fig18_sweep`` streams the same rows for any worker count
        and chunk size, and the window mean sits inside the per-day spread."""
        serial = run_fig18_sweep(setup=small_setup, start_day=30, days=3).measured
        streamed = run_fig18_sweep(
            setup=small_setup, start_day=30, days=3, workers=2, chunk_days=2
        ).measured
        assert streamed == serial
        assert (
            serial["tn_savings_vs_wrr_min_day"]
            <= serial["tn_savings_vs_wrr"]
            <= serial["tn_savings_vs_wrr_max_day"]
        )


class TestStreaming:
    def test_chunked_window_matches_monolithic(self, small_setup):
        days = range(30, 34)
        runner = SweepRunner(small_setup, workers=1)
        mono = runner.run_prediction_window(days, evaluate=True)
        chunked = runner.run_prediction_window(days, evaluate=True, chunk_days=2)
        assert set(chunked) == set(mono)
        for day in days:
            for name in mono[day]:
                assert_same_day_result(chunked[day][name], mono[day][name])
                assert_same_evaluation(
                    chunked[day][name].evaluation, mono[day][name].evaluation
                )

    def test_iter_days_streams_in_day_order(self, small_setup):
        runner = SweepRunner(small_setup, workers=1)
        mono = runner.run_prediction_window(DAYS)
        seen = []
        for day, results in runner.iter_days(DAYS, chunk_days=1):
            seen.append(day)
            for name in mono[day]:
                assert_same_day_result(results[name], mono[day][name])
        assert seen == DAYS

    def test_chunked_pool_spans_chunks(self, small_setup, serial_reference):
        runner = SweepRunner(small_setup, workers=2)
        results = titan_next_days(runner, DAYS, evaluate=True, return_tables=False, chunk_days=1)
        for day in DAYS:
            assert_same_day_result(results[day], serial_reference[day])
            assert_same_evaluation(results[day].evaluation, serial_reference[day].evaluation)

    def test_chunked_oracle_matches_monolithic(self, small_setup):
        runner = SweepRunner(small_setup, workers=1)
        mono = runner.run_oracle_days(range(2, 6))
        chunked = runner.run_oracle_days(range(2, 6), chunk_days=2)
        assert set(chunked) == set(mono)
        for day, results in mono.items():
            for name, result in results.items():
                assert chunked[day][name].sum_of_peaks_gbps == result.sum_of_peaks_gbps

    @pytest.mark.parametrize(
        "options",
        [{}, {"policies": ("wrr", "lf")}],
        ids=["plan-cache", "baselines-only"],
    )
    def test_oracle_days_fan_out_chunk_by_chunk(self, small_setup, monkeypatch, options):
        """Every oracle path hands the pool ``chunk_days`` days at a time."""
        batches = []
        map_days = SweepRunner.map_days

        def spy(self, fn, tasks, pool=None):
            tasks = list(tasks)
            batches.append(len(tasks))
            return map_days(self, fn, tasks, pool=pool)

        monkeypatch.setattr(SweepRunner, "map_days", spy)
        chunked = SweepRunner(small_setup, workers=2).run_oracle_days(
            range(2, 6), chunk_days=2, **options
        )
        monkeypatch.undo()
        assert batches == [2, 2]
        mono = SweepRunner(small_setup, workers=1).run_oracle_days(range(2, 6), **options)
        assert set(chunked) == set(mono)
        for day, results in mono.items():
            assert set(chunked[day]) == set(results)
            for name, result in results.items():
                assert_same_evaluation(chunked[day][name], result)

    def test_chunk_days_validation(self, small_setup):
        """The per-call chunk size is checked before any day runs."""
        runner = SweepRunner(small_setup, workers=1)
        with pytest.raises(ValueError, match="chunk_days"):
            runner.run_prediction_window(DAYS, chunk_days=0)
        with pytest.raises(ValueError, match="chunk_days"):
            runner.run_oracle_days(range(2, 4), chunk_days=0)
