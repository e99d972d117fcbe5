"""Per-call index columns at their width edges.

``CallTable``, ``AssignmentBatch`` and the sweep's ``DaySummary`` store
each index column in ``index_dtype`` of its bound: the narrowest signed
integer dtype holding every value in ``[0, bound]``.  These tests put
tables on the int8/int16 edge of the config index (127 and 128 configs)
and on the int16/int32 edge of the start slot (a largest end slot of
32,767 and of 32,768), and check every batch path there against its
scalar reference: WRR, LF and Titan ``process_table`` against their
per-call oracles, ``realized_assignment_table`` against a per-call
accumulation, ``evaluate_batch`` against ``evaluate_assignment`` and
``quota_overflow`` against a loop over the calls.  The constructors
reject an index outside its range, naming the column, and the Europe
day's columns are pinned narrow, so a silent return to int64 fails.
"""

import itertools

import numpy as np
import pytest

from repro.analysis.metrics import evaluate_batch, realized_assignment_table
from repro.core.controller import (
    AssignmentBatch,
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
)
from repro.core.plan import OfflinePlan
from repro.core.scenario import Scenario
from repro.core.stress import quota_overflow
from repro.core.sweep import summarize_day_result
from repro.core.titan_next import _prediction_day_result, oracle_demand_for_day, plan_day
from repro.workload.configs import CallConfig
from repro.workload.media import AUDIO, SCREENSHARE, VIDEO
from repro.workload.traces import MAX_DURATION_SLOTS, CallTable, TraceGenerator, index_dtype
from tests.scalar_reference import ScalarTitan, evaluate_assignment
from tests.test_analysis_metrics import assert_equivalent
from tests.test_controller_batch import MAKERS, _placements, _replay_both, _scaled_copy

#: The countries of the cut-down scenario: few usage rows, so a tracker
#: sized past slot 32,768 stays small.
COUNTRIES = ("GB", "FR", "DE")
SLOTS_PER_DAY = 48


def _configs(n):
    """``n`` distinct configs over :data:`COUNTRIES`: zero to three
    participants per country, in each media type."""
    configs = [
        CallConfig.from_counts({c: k for c, k in zip(COUNTRIES, counts) if k}, media)
        for media in (AUDIO, VIDEO, SCREENSHARE)
        for counts in itertools.product(range(4), repeat=len(COUNTRIES))
        if any(counts)
    ]
    assert len(configs) >= n
    return configs[:n]


def _edge_table(n_configs, last_end, n=400, seed=0):
    """``n`` slot-major calls over the four start slots that let a call
    end at ``last_end``; one call takes the last config and the last
    call ends exactly at ``last_end``."""
    configs = _configs(n_configs)
    rng = np.random.default_rng(seed)
    first_start = last_end - MAX_DURATION_SLOTS - 3
    starts = np.sort(rng.integers(first_start, first_start + 4, n))
    starts[-1] = last_end - MAX_DURATION_SLOTS
    durations = rng.integers(1, MAX_DURATION_SLOTS + 1, n)
    durations[-1] = MAX_DURATION_SLOTS
    config_idx = rng.integers(0, n_configs, n)
    config_idx[n // 2] = n_configs - 1
    first = [int(rng.integers(len(configs[c].countries))) for c in config_idx]
    return CallTable(configs, config_idx, starts, durations, first)


@pytest.fixture(scope="module")
def scenario(small_setup):
    """The small Europe scenario cut to :data:`COUNTRIES`, with a tenth
    of its capacity so the first-joiner replays contend and overflow."""
    scaled = _scaled_copy(small_setup.scenario, 0.1)
    return Scenario(
        scaled.world,
        scaled.latency,
        COUNTRIES,
        scaled.dc_codes,
        scaled.capacity_book,
        compute_caps=scaled.compute_caps,
        slots_per_day=scaled.slots_per_day,
    )


EDGES = pytest.mark.parametrize(
    "n_configs, last_end",
    [(127, 32_767), (127, 32_768), (128, 32_767), (128, 32_768)],
    ids=["cfg127-end32767", "cfg127-end32768", "cfg128-end32767", "cfg128-end32768"],
)

class TestIndexDtype:
    @pytest.mark.parametrize(
        "bound, dtype",
        [
            (0, np.int8),
            (127, np.int8),
            (128, np.int16),
            (32_767, np.int16),
            (32_768, np.int32),
            (2**31 - 1, np.int32),
            (2**31, np.int64),
        ],
    )
    def test_narrowest_dtype_holding_the_bound(self, bound, dtype):
        assert index_dtype(bound) == np.dtype(dtype)
        # The bound itself fits, so ``idx + 1`` of any valid index does.
        assert np.asarray(bound, dtype=index_dtype(bound)) == bound

    def test_bound_beyond_int64_rejected(self):
        with pytest.raises(ValueError):
            index_dtype(2**63)


@EDGES
class TestWidthEdges:
    def test_column_dtypes(self, n_configs, last_end):
        table = _edge_table(n_configs, last_end)
        assert table.config_idx.dtype == (np.int8 if n_configs <= 127 else np.int16)
        assert table.start_slot.dtype == (np.int16 if last_end <= 32_767 else np.int32)
        assert table.duration_slots.dtype == np.int8
        assert table.first_joiner_idx.dtype == np.int8
        assert int(table.config_idx.max()) == n_configs - 1
        assert table.end_slot.dtype == np.int64
        assert int(table.end_slot.max()) == last_end
        assert np.array_equal(
            table.end_slot, table.start_slot.astype(np.int64) + table.duration_slots
        )

    @pytest.mark.parametrize("make, make_scalar", list(MAKERS.values()), ids=list(MAKERS))
    def test_first_joiner_replays_match_scalar(
        self, scenario, n_configs, last_end, make, make_scalar
    ):
        """Placements, stats and tracker usage, bit for bit."""
        table = _edge_table(n_configs, last_end)
        scalar = _replay_both(scenario, [table], make, make_scalar)
        assert 0 < scalar.stats.unplanned < len(table)

    def test_titan_matches_scalar(self, scenario, n_configs, last_end):
        table = _edge_table(n_configs, last_end)
        scalar, batched = ScalarTitan(scenario, seed=4), FirstJoinerTitan(scenario, seed=4)
        reference = [scalar.process(call) for call in table.to_calls()]
        batch = batched.process_table(table)
        assert _placements(batch) == _placements(reference)
        assert batched.stats == scalar.stats

    def test_scoring_matches_per_call_reference(self, scenario, n_configs, last_end):
        """On the day's slot grid and on one that folds nothing, so the
        slot keys reach past 32,767."""
        table = _edge_table(n_configs, last_end)
        batch = FirstJoinerWrr(scenario, seed=3).process_table(table)
        assert batch.final_dc_idx.dtype == np.int8
        assert batch.final_option_idx.dtype == np.int8
        for fold in (SLOTS_PER_DAY, 1 << 16):
            manual = {}
            for a in batch:
                key = (a.call.start_slot % fold, a.call.config, a.final_dc, a.final_option)
                manual[key] = manual.get(key, 0.0) + 1.0
            assert realized_assignment_table(batch, fold) == manual
            assert_equivalent(
                evaluate_batch(scenario, batch, "wrr", slots_per_day=fold),
                evaluate_assignment(scenario, manual, "wrr"),
            )
        assert max(t for t, *_ in manual) >= 32_761

    def test_quota_overflow_matches_loop(self, scenario, n_configs, last_end):
        """A plan holding half of each realized (slot, reduced config,
        bucket) load, on even slots of the day only."""
        table = _edge_table(n_configs, last_end)
        batch = FirstJoinerLf(scenario).process_table(table)
        assignment = {}
        for (t, config, dc, option), n in realized_assignment_table(batch, SLOTS_PER_DAY).items():
            if t % 2 == 0:
                key = (t, config.reduced(), dc, option)
                assignment[key] = assignment.get(key, 0.0) + n / 2
        plan = OfflinePlan.from_assignment(assignment)
        realized = {}
        for call in table:
            key = (call.start_slot % SLOTS_PER_DAY, call.config.reduced())
            realized[key] = realized.get(key, 0) + 1
        expected = 0.0
        for (slot, config), count in realized.items():
            entry = plan.entry(slot, config)
            expected += max(0.0, count - (entry.total() if entry is not None else 0.0))
        assert expected > 0
        assert quota_overflow(plan, table, SLOTS_PER_DAY) == expected


CONFIGS = (
    CallConfig.from_counts({"GB": 1}, VIDEO),
    CallConfig.from_counts({"GB": 1, "FR": 2}, VIDEO),
)
#: A valid two-call table's columns; each case below breaks one.
TABLE_COLUMNS = {
    "config_idx": [0, 1],
    "start_slot": [10, 11],
    "duration_slots": [1, MAX_DURATION_SLOTS],
    "first_joiner_idx": [0, 1],
}
DC_CODES = ("uk-south", "france-central", "ireland")
BATCH_COLUMNS = {
    "initial_dc_idx": [0, 2],
    "initial_option_idx": [0, 1],
    "final_dc_idx": [2, 0],
    "final_option_idx": [1, 0],
}


class TestConstructorValidation:
    @pytest.mark.parametrize(
        "column, values",
        [
            ("config_idx", [-1, 0]),
            ("config_idx", [0, len(CONFIGS)]),
            ("first_joiner_idx", [-1, 0]),
            ("first_joiner_idx", [0, 2]),
            ("duration_slots", [0, 1]),
            ("duration_slots", [1, MAX_DURATION_SLOTS + 1]),
            ("start_slot", [-1, 0]),
        ],
    )
    def test_call_table_rejects_out_of_range(self, column, values):
        columns = dict(TABLE_COLUMNS, **{column: values})
        with pytest.raises(ValueError, match=column):
            CallTable(CONFIGS, **columns)

    @pytest.mark.parametrize("column", list(BATCH_COLUMNS))
    @pytest.mark.parametrize("bad", ["negative", "bound"])
    def test_batch_rejects_out_of_range(self, column, bad):
        table = CallTable(CONFIGS, **TABLE_COLUMNS)
        bound = 2 if "option" in column else len(DC_CODES)
        columns = dict(BATCH_COLUMNS, **{column: [-1, 0] if bad == "negative" else [0, bound]})
        with pytest.raises(ValueError, match=column):
            AssignmentBatch(table, **columns, dc_codes=DC_CODES)

    def test_batch_rejects_wrong_length(self):
        table = CallTable(CONFIGS, **TABLE_COLUMNS)
        columns = dict(BATCH_COLUMNS, final_dc_idx=[0])
        with pytest.raises(ValueError, match="final_dc_idx"):
            AssignmentBatch(table, **columns, dc_codes=DC_CODES)

    def test_int64_arrays_and_lists_are_narrowed(self):
        wide = {name: np.asarray(values, dtype=np.int64) for name, values in TABLE_COLUMNS.items()}
        table = CallTable(CONFIGS, **wide)
        assert table.to_calls() == CallTable(CONFIGS, **TABLE_COLUMNS).to_calls()
        for name in TABLE_COLUMNS:
            assert getattr(table, name).dtype == np.int8
        call = table.call(1)
        assert type(call.call_id) is int
        assert type(call.start_slot) is int
        assert type(call.duration_slots) is int
        assert call.first_joiner_country == CONFIGS[1].countries[1] == "GB"
        batch = AssignmentBatch(table, **BATCH_COLUMNS, dc_codes=DC_CODES)
        assert [a.final_dc for a in batch] == ["ireland", "uk-south"]
        assert table.call_ids.dtype == np.int64


def test_europe_day_columns_stay_narrow(small_setup):
    """The Europe day's table columns take at most two bytes, its batch
    columns one, and its compact summary rows at most two."""
    table = TraceGenerator(
        small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=71
    ).table_for_day(30)
    assert table.config_idx.dtype == np.int8
    assert table.start_slot.dtype == np.int16
    assert table.duration_slots.dtype == np.int8
    assert table.first_joiner_idx.dtype == np.int8
    plan = plan_day(small_setup, oracle_demand_for_day(small_setup, 30), 30)
    for policy in ("wrr", "lf", "titan", "titan-next"):
        result = _prediction_day_result(small_setup, policy, table, 71, plan_assignment=plan)
        batch = result.assignments
        for name in ("initial_dc_idx", "initial_option_idx", "final_dc_idx", "final_option_idx"):
            assert getattr(batch, name).dtype == np.int8, (policy, name)
        summary = summarize_day_result(small_setup.scenario, result, 30, 71)
        for name in ("row_slot", "row_cfg", "row_dc", "row_opt"):
            assert getattr(summary, name).dtype == np.int8, (policy, name)
        assert summary.row_count.dtype.itemsize <= 2
