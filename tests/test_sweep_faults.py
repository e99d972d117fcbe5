"""Fault-tolerant sweeps: chaos injection, recovery, byte-identity.

The engine-level stress contract: a sweep that loses a worker to a
SIGKILL, stalls on a hung task, or hits a transient task error must
recover through the :class:`~repro.core.sweep.FaultPolicy` supervision
loop and still reproduce the serial ``workers=1`` reference byte for
byte — retries are sound because per-day work is a pure function of
the task tuple (Philox counter-keying).  Marked ``slow``: each test
spawns process pools.
"""

import pytest

from repro.core.lp import PlanningError
from repro.core.sweep import (
    FaultPolicy,
    FlakyTaskFault,
    HangFault,
    KillWorkerFault,
    SummaryDayResult,
    SweepError,
    SweepRunner,
)
from tests.test_sweep_parallel import (
    assert_same_day_result,
    assert_same_evaluation,
    titan_next_days,
)

DAYS = [30, 31, 32]

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def serial_reference(small_setup):
    """The pinned serial sweep every recovered run must reproduce."""
    return titan_next_days(SweepRunner(small_setup, workers=1), DAYS, evaluate=True)


def assert_matches_reference(results, reference):
    assert set(results) == set(reference)
    for day in DAYS:
        assert_same_day_result(results[day], reference[day])
        assert_same_evaluation(results[day].evaluation, reference[day].evaluation)


class TestKillRecovery:
    def test_killed_worker_recovers_byte_identical(self, small_setup, serial_reference):
        """A worker hard-killed mid-replay (as by the OOM killer) breaks
        the pool; the runner rebuilds it, resubmits the incomplete days,
        and the sweep completes identical to serial."""
        runner = SweepRunner(small_setup, workers=2, inject_fault=KillWorkerFault(day=31))
        results = titan_next_days(runner, DAYS, evaluate=True)
        assert_matches_reference(results, serial_reference)
        assert any(f.error_type == "BrokenPool" for f in runner.fault_log)

    def test_killed_worker_recovers_on_the_compact_channel(self, small_setup, serial_reference):
        """The same kill with ``return_tables=False``: the resubmitted
        day's summary reproduces the serial result exactly."""
        runner = SweepRunner(small_setup, workers=2, inject_fault=KillWorkerFault(day=31))
        results = titan_next_days(runner, DAYS, evaluate=True, return_tables=False)
        assert all(isinstance(results[day], SummaryDayResult) for day in DAYS)
        assert_matches_reference(results, serial_reference)
        assert any(f.error_type == "BrokenPool" for f in runner.fault_log)

    def test_serial_path_never_injects(self, small_setup, serial_reference):
        """workers=1 is the reference: the chaos hook must not fire."""
        runner = SweepRunner(small_setup, workers=1, inject_fault=KillWorkerFault(day=31))
        results = titan_next_days(runner, DAYS, evaluate=True)
        assert_matches_reference(results, serial_reference)
        assert runner.fault_log == []


class TestHangRecovery:
    def test_hung_task_hits_timeout_and_recovers(self, small_setup, serial_reference):
        """A task stalled past ``timeout_s`` forces a pool rebuild; the
        resubmitted attempt runs clean and results match serial."""
        runner = SweepRunner(
            small_setup,
            workers=2,
            fault_policy=FaultPolicy(timeout_s=5.0),
            inject_fault=HangFault(day=32, seconds=45.0),
        )
        results = titan_next_days(runner, DAYS, evaluate=True)
        assert_matches_reference(results, serial_reference)
        assert any(f.error_type == "Timeout" and "32" in f.label for f in runner.fault_log)


class TestRetry:
    def test_transient_error_retries_in_place(self, small_setup, serial_reference):
        runner = SweepRunner(small_setup, workers=2, inject_fault=FlakyTaskFault(day=30))
        results = titan_next_days(runner, DAYS, evaluate=True)
        assert_matches_reference(results, serial_reference)
        incidents = [f for f in runner.fault_log if f.error_type == "RuntimeError"]
        assert len(incidents) == 1
        assert incidents[0].kind == "replay"
        assert incidents[0].label == "replay:day=30"
        assert "injected transient failure" in incidents[0].message
        assert incidents[0].traceback  # full worker-side traceback captured

    def test_exhausted_retries_raise_structured_sweep_error(self, small_setup):
        """A deterministic failure (fails on every attempt) must give up
        with a report naming the phase, day, and attempts."""

        runner = SweepRunner(
            small_setup,
            workers=2,
            fault_policy=FaultPolicy(max_retries=1, backoff_s=0.0),
            inject_fault=_AlwaysFails(day=31),
        )
        with pytest.raises(SweepError) as excinfo:
            titan_next_days(runner, DAYS)
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert failures[0].label == "replay:day=31"
        assert failures[0].attempts == 2  # first try + one retry
        assert failures[0].error_type == "RuntimeError"


    def test_planning_error_is_raised_not_retried(self, small_setup):
        """An input error (here a PlanningError) would fail every retry
        identically: the pool is killed and the error raised as is."""
        runner = SweepRunner(small_setup, workers=2, inject_fault=_PlanningFails(day=31))
        with pytest.raises(PlanningError) as excinfo:
            titan_next_days(runner, DAYS)
        assert excinfo.value.day == 31
        assert excinfo.value.status == "infeasible"
        assert runner.fault_log == []


class _PlanningFails:
    """Injector that raises an infeasible-plan error for a day's replay."""

    def __init__(self, day):
        self.day = day

    def __call__(self, kind, task, attempt):
        if kind == "replay" and task[0] == self.day:
            raise PlanningError("injected infeasible plan", status="infeasible", day=self.day)


class _AlwaysFails:
    """Injector that fails a day's replay on every attempt."""

    def __init__(self, day):
        self.day = day

    def __call__(self, kind, task, attempt):
        if kind == "replay" and isinstance(task[0], int) and task[0] == self.day:
            raise RuntimeError("permanent injected failure")


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            FaultPolicy(max_pool_rebuilds=-1)

    def test_backoff_grows_geometrically(self):
        policy = FaultPolicy(backoff_s=0.1, backoff_multiplier=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)
