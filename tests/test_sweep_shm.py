"""Shared-memory sweep suite: zero-copy state, compact summaries, streaming.

Three contracts layered on the parallel sweep engine:

* ``backend="process+shm"`` maps worker state out of one named
  shared-memory segment instead of unpickling a private copy — and must
  reproduce the serial reference byte for byte for any worker count,
  including runs that recover from an injected worker kill;
* compact :class:`~repro.core.sweep.DaySummary` results reconstruct the
  full per-day tables on demand (Philox counter-keying makes the
  reconstruction exact, not approximate);
* ``chunk_days`` / ``iter_days`` stream long windows chunk by chunk
  with identical results to the monolithic window.

Every test also asserts segment hygiene: no arena segment survives a
sweep, chaos or not.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core.shm import (
    SEGMENT_PREFIX,
    ShmArena,
    live_segment_names,
    map_payload,
)
from repro.core.sweep import (
    KillWorkerFault,
    SummaryDayResult,
    SweepRunner,
)
from repro.core.titan_next import run_oracle_week, run_prediction_window
from tests.test_sweep_parallel import assert_same_day_result, assert_same_evaluation

DAYS = [30, 31, 32]


def assert_no_live_segments():
    """Nothing in the process registry and nothing left in /dev/shm."""
    assert live_segment_names() == []
    if os.path.isdir("/dev/shm"):
        leaked = [n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)]
        assert leaked == []


@pytest.fixture(scope="module")
def serial_reference(small_setup):
    """The pinned serial sweep every shm run must reproduce."""
    return SweepRunner(small_setup, workers=1).run_prediction_sweep(DAYS, evaluate=True)


class TestShmArena:
    def test_round_trip_is_zero_copy_and_read_only(self):
        big = np.arange(100_000, dtype=np.float64)
        small = np.arange(4, dtype=np.int64)
        arena = ShmArena({"big": big, "small": small, "label": "x"})
        try:
            payload = arena.payload()
            assert payload.shared_bytes >= big.nbytes
            mapped, attachment = map_payload(payload)
            try:
                assert np.array_equal(mapped["big"], big)
                assert np.array_equal(mapped["small"], small)
                assert mapped["label"] == "x"
                # the big array is a view of the segment, not a copy …
                assert not mapped["big"].flags.writeable
                with pytest.raises(ValueError):
                    mapped["big"][0] = -1.0
                # … while sub-threshold buffers travel in-band (private).
                assert mapped["small"].flags.writeable
            finally:
                del mapped
                attachment.close()
        finally:
            arena.dispose()
        assert_no_live_segments()

    def test_small_graph_stays_entirely_in_band(self):
        arena = ShmArena({"tiny": np.arange(8, dtype=np.int64)})
        try:
            payload = arena.payload()
            assert payload.spans == ()
            assert payload.shared_bytes == 0
        finally:
            arena.dispose()

    def test_dispose_is_idempotent_and_guards_payload(self):
        arena = ShmArena({"a": np.arange(2_000, dtype=np.float64)})
        name = arena.name
        assert name in live_segment_names()
        arena.dispose()
        arena.dispose()  # second call is a no-op, not an error
        assert not arena.alive
        assert name not in live_segment_names()
        with pytest.raises(RuntimeError):
            arena.payload()


class TestEvalTableCache:
    """Satellite coverage: FIFO eviction order and the pickling contract."""

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

    def test_install_preserves_identity_through_one_pickle_graph(self, small_setup):
        """The shm shipping contract: setup + warm tables in one graph
        arrive with the tables keyed on the *worker's* config objects,
        so installation makes the first ``eval_tables`` call a hit."""
        runner = SweepRunner(small_setup, workers=1)
        setup, warm, (ptr, flat) = pickle.loads(
            pickle.dumps(runner._shm_state_payload(), protocol=pickle.HIGHEST_PROTOCOL)
        )
        scenario = setup.scenario
        assert scenario._eval_tables == {}  # __getstate__ dropped the cache
        scenario.install_eval_tables(warm)
        scenario.install_link_csr(ptr, flat)
        assert scenario.eval_tables(warm.configs) is warm
        assert scenario.link_incidence_csr() == (ptr, flat)

    def test_process_payload_uses_highest_pickle_protocol(self, small_setup):
        runner = SweepRunner(small_setup, workers=2, backend="process")
        with runner.worker_pool(len(DAYS)) as handle:
            assert handle._payload[:2] == bytes([0x80, pickle.HIGHEST_PROTOCOL])


class TestShmSweepEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_shm_workers_reproduce_serial(self, small_setup, serial_reference, workers):
        runner = SweepRunner(small_setup, workers=workers, shared_memory=True)
        assert runner.backend == "process+shm"
        results = runner.run_prediction_sweep(DAYS, evaluate=True)
        for day in DAYS:
            assert isinstance(results[day], SummaryDayResult)
            assert_same_day_result(results[day], serial_reference[day])
            assert_same_evaluation(results[day].evaluation, serial_reference[day].evaluation)
        assert_no_live_segments()

    def test_summary_reconstructs_full_tables_exactly(self, small_setup, serial_reference):
        runner = SweepRunner(small_setup, workers=2, shared_memory=True)
        results = runner.run_prediction_sweep(DAYS)
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

    def test_return_tables_true_ships_full_results(self, small_setup, serial_reference):
        runner = SweepRunner(small_setup, workers=2, shared_memory=True, return_tables=True)
        results = runner.run_prediction_sweep(DAYS)
        for day in DAYS:
            assert not isinstance(results[day], SummaryDayResult)
            assert_same_day_result(results[day], serial_reference[day])
        assert_no_live_segments()

    def test_compact_summaries_on_plain_process_backend(self, small_setup, serial_reference):
        runner = SweepRunner(small_setup, workers=2, backend="process", return_tables=False)
        results = runner.run_prediction_sweep(DAYS)
        for day in DAYS:
            assert isinstance(results[day], SummaryDayResult)
            assert_same_day_result(results[day], serial_reference[day])

    def test_all_policy_window_matches_serial(self, small_setup):
        serial = run_prediction_window(small_setup, DAYS, workers=1, evaluate=True)
        shm = run_prediction_window(
            small_setup, DAYS, workers=2, shared_memory=True, evaluate=True
        )
        for day in DAYS:
            assert set(shm[day]) == set(serial[day])
            for name in serial[day]:
                assert_same_day_result(shm[day][name], serial[day][name])
                assert_same_evaluation(shm[day][name].evaluation, serial[day][name].evaluation)
        assert_no_live_segments()

    def test_shared_memory_requires_process_backend(self, small_setup):
        with pytest.raises(ValueError):
            SweepRunner(small_setup, workers=2, backend="serial", shared_memory=True)


class TestStreaming:
    def test_chunked_window_matches_monolithic(self, small_setup):
        days = range(30, 34)
        mono = run_prediction_window(small_setup, days, workers=1, evaluate=True)
        chunked = run_prediction_window(
            small_setup, days, workers=1, evaluate=True, chunk_days=2
        )
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

    def test_chunked_shm_pool_spans_chunks(self, small_setup, serial_reference):
        runner = SweepRunner(small_setup, workers=2, shared_memory=True, chunk_days=1)
        results = runner.run_prediction_sweep(DAYS, evaluate=True)
        for day in DAYS:
            assert_same_day_result(results[day], serial_reference[day])
            assert_same_evaluation(results[day].evaluation, serial_reference[day].evaluation)
        assert_no_live_segments()

    def test_chunked_oracle_matches_monolithic(self, small_setup):
        mono = run_oracle_week(small_setup, days=4)
        chunked = run_oracle_week(small_setup, days=4, chunk_days=2)
        assert set(chunked) == set(mono)
        for day, results in mono.items():
            for name, result in results.items():
                assert chunked[day][name].sum_of_peaks_gbps == result.sum_of_peaks_gbps

    def test_chunk_days_validation(self, small_setup):
        with pytest.raises(ValueError):
            SweepRunner(small_setup, chunk_days=0)


@pytest.mark.slow
class TestShmChaos:
    def test_killed_worker_recovers_and_leaks_nothing(self, small_setup, serial_reference):
        """A SIGKILLed worker breaks the pool; the rebuild re-maps the
        *same* segment (never re-allocates), the resubmitted day
        reproduces its result exactly, and nothing survives in
        ``/dev/shm`` afterwards."""
        runner = SweepRunner(
            small_setup, workers=2, shared_memory=True, inject_fault=KillWorkerFault(day=31)
        )
        results = runner.run_prediction_sweep(DAYS, evaluate=True)
        for day in DAYS:
            assert_same_day_result(results[day], serial_reference[day])
            assert_same_evaluation(results[day].evaluation, serial_reference[day].evaluation)
        assert any(f.error_type == "BrokenPool" for f in runner.fault_log)
        assert_no_live_segments()
