"""Batch controller paths vs the scalar references.

For identical uniform streams on the Europe scenario, every
controller's ``process_table`` reproduces the scalar per-call loop —
the same :class:`ControllerStats` *and* the same per-call placements.
The first-joiner baselines admit in bulk, so they are also checked
where that is hardest: under heavy contention on Europe and the four
zoo scenarios, on tables that are not slot-major, across split tables,
and on WRR's tie cases and degenerate capacity — down to the tracker's
usage arrays, bit for bit.  Traffic outside the scenario is rejected,
not replayed: a participant country outside it raises in both WRR and
LF paths, and a plan DC outside it in Titan-Next's batch path.
"""

import numpy as np
import pytest

from repro.analysis.metrics import evaluate_batch
from repro.core.capacity import InternetCapacityBook
from repro.core.controller import (
    AssignmentBatch,
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
    TitanNextController,
    _chain_picks,
    _table_countries,
)
from repro.core.lp import JointAssignmentLp
from repro.core.plan import QUOTA_EPS, OfflinePlan, weighted_pick
from repro.core.scenario import Scenario
from repro.core.titan_next import (
    oracle_demand_for_day,
    predicted_demand_for_day,
    run_prediction_day,
)
from repro.net.latency import WAN
from repro.scenarios.factory import build_scenario
from repro.workload.configs import CallConfig
from repro.workload.traces import CallTable, TraceGenerator


ZOO = ("americas", "apac", "emea", "global")


@pytest.fixture(scope="module")
def plan_assignment(small_setup):
    demand = oracle_demand_for_day(small_setup, day=30)
    result = JointAssignmentLp(small_setup.scenario, demand).solve()
    assert result.is_optimal
    return result.assignment


@pytest.fixture(scope="module")
def day_table(small_setup):
    generator = TraceGenerator(
        small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
    )
    return generator.table_for_window(30 * 48 + 14, 10)


def _placements(assignments):
    return [
        (a.call.call_id, a.initial_dc, a.initial_option, a.final_dc, a.final_option)
        for a in assignments
    ]


class TestBatchEquivalence:
    def test_titan_next_matches_scalar(self, small_setup, plan_assignment, day_table):
        scalar = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        batched = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        reference = [scalar.process(call) for call in day_table.to_calls()]
        batch = batched.process_table(day_table)
        assert _placements(batch) == _placements(reference)
        assert batched.stats == scalar.stats
        assert batch.dc_migrations == scalar.stats.dc_migrations
        assert batch.option_migrations == scalar.stats.option_migrations

    def test_titan_next_raw_configs_match_scalar(self, small_setup, plan_assignment, day_table):
        scalar = TitanNextController(
            small_setup.scenario,
            OfflinePlan.from_assignment(plan_assignment),
            seed=7,
            reduce_configs=False,
        )
        batched = TitanNextController(
            small_setup.scenario,
            OfflinePlan.from_assignment(plan_assignment),
            seed=7,
            reduce_configs=False,
        )
        reference = [scalar.process(call) for call in day_table.to_calls()]
        assert _placements(batched.process_table(day_table)) == _placements(reference)
        assert batched.stats == scalar.stats

    @pytest.mark.parametrize(
        "make",
        [
            lambda scenario: FirstJoinerWrr(scenario, seed=3),
            lambda scenario: FirstJoinerLf(scenario),
            lambda scenario: FirstJoinerTitan(scenario, seed=4),
        ],
        ids=["wrr", "lf", "titan"],
    )
    def test_baseline_matches_scalar(self, small_setup, day_table, make):
        scalar = make(small_setup.scenario)
        batched = make(small_setup.scenario)
        reference = [scalar.process(call) for call in day_table.to_calls()]
        batch = batched.process_table(day_table)
        assert _placements(batch) == _placements(reference)
        assert batched.stats == scalar.stats
        assert batched.stats.calls == len(day_table)

    def test_split_tables_equal_one_continuous_pass(self, small_setup, plan_assignment):
        """Successive process_table calls behave like one stream: the
        quota snapshot, uniform buffer, and recent-config state carry
        over, so splitting a window matches the scalar loop over all
        calls."""
        generator = TraceGenerator(
            small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
        )
        first = generator.table_for_window(30 * 48 + 14, 5)
        second = generator.table_for_window(30 * 48 + 19, 5, id_offset=len(first))
        scalar = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        batched = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        reference = [scalar.process(call) for call in first.to_calls() + second.to_calls()]
        batch = _placements(batched.process_table(first)) + _placements(
            batched.process_table(second)
        )
        assert batch == _placements(reference)
        assert batched.stats == scalar.stats

    def test_scalar_after_batch_rejected(self, small_setup, plan_assignment, day_table):
        """Mixing scalar process() after process_table() would double-
        spend quota against the untouched plan — it must fail loudly."""
        controller = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        controller.process_table(day_table)
        with pytest.raises(RuntimeError, match="process_table"):
            controller.process(day_table.call(0))

    def test_empty_table(self, small_setup, plan_assignment, day_table):
        empty = day_table.__class__(
            day_table.configs,
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        for controller in (
            TitanNextController(small_setup.scenario, OfflinePlan.from_assignment(plan_assignment)),
            FirstJoinerWrr(small_setup.scenario),
            FirstJoinerLf(small_setup.scenario),
            FirstJoinerTitan(small_setup.scenario),
        ):
            batch = controller.process_table(empty)
            assert len(batch) == 0
            assert batch.to_list() == []


def _scaled_copy(scenario, factor, fractions=None, compute_factor=None):
    """``scenario`` with every pair's Internet Gbps scaled by ``factor``
    and compute caps by ``compute_factor`` (default ``factor``);
    ``fractions`` sets ``{(country, dc): Internet fraction}``."""
    book = InternetCapacityBook()
    book.restore(
        {
            key: (fraction, gbps * factor, disabled)
            for key, (fraction, gbps, disabled) in scenario.capacity_book.snapshot().items()
        }
    )
    for (country, dc), fraction in (fractions or {}).items():
        book.set_fraction(country, dc, fraction)
    compute_factor = factor if compute_factor is None else compute_factor
    return Scenario(
        scenario.world,
        scenario.latency,
        scenario.country_codes,
        scenario.dc_codes,
        book,
        compute_caps={dc: cap * compute_factor for dc, cap in scenario.compute_caps.items()},
        slots_per_day=scenario.slots_per_day,
    )


def _permuted(table, seed):
    order = np.random.default_rng(seed).permutation(len(table))
    return CallTable(
        table.configs,
        table.config_idx[order],
        table.start_slot[order],
        table.duration_slots[order],
        table.first_joiner_idx[order],
    )


def _replay_both(scenario, tables, make):
    """Scalar loop over all tables vs one batch call per table; asserts
    equal placements, stats and tracker usage, returns the scalar one."""
    scalar, batched = make(scenario), make(scenario)
    reference = [scalar.process(call) for table in tables for call in table.to_calls()]
    placements = []
    for table in tables:
        placements += _placements(batched.process_table(table))
    assert placements == _placements(reference)
    assert batched.stats == scalar.stats
    for usage in ("_compute", "_internet"):
        ours, theirs = getattr(batched.tracker, usage), getattr(scalar.tracker, usage)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
    return scalar


MAKERS = {
    "wrr": lambda scenario: FirstJoinerWrr(scenario, seed=3),
    "lf": lambda scenario: FirstJoinerLf(scenario),
}
FIRST_JOINER = pytest.mark.parametrize("make", list(MAKERS.values()), ids=list(MAKERS))

#: Europe (ids ``wrr``/``lf``), then each zoo scenario (``<name>-wrr``...).
CONTENDED = pytest.mark.parametrize(
    "where, make",
    [(where, make) for where in ("europe",) + ZOO for make in MAKERS.values()],
    ids=[
        policy if where == "europe" else f"{where}-{policy}"
        for where in ("europe",) + ZOO
        for policy in MAKERS
    ],
)


@pytest.fixture(scope="module")
def contended(small_setup):
    """A fifth of the compute and Internet capacity: most slots overflow."""
    return _scaled_copy(small_setup.scenario, 0.2)


@pytest.fixture(scope="module")
def zoo_contended():
    """``name -> (scenario, table)``, built on first use: a zoo scenario
    at 5k calls/top-40 with a fifth of its capacity, and ten of its
    day-30 slots."""
    built = {}

    def get(name):
        if name not in built:
            setup = build_scenario(name, daily_calls=5_000, top_n_configs=40)
            generator = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=5)
            built[name] = (
                _scaled_copy(setup.scenario, 0.2),
                generator.table_for_window(30 * 48 + 14, 10),
            )
        return built[name]

    return get


def _mixed_table(configs, n, seed, slots=6):
    """``n`` calls of ``configs`` drawn at random over ``slots`` start
    slots of day 30, slot-major; each call's first joiner is its
    config's first country."""
    rng = np.random.default_rng(seed)
    return CallTable(
        configs,
        rng.integers(0, len(configs), n),
        np.sort(30 * 48 + rng.integers(0, slots, n)),
        rng.integers(1, 4, n),
        np.zeros(n, dtype=np.int64),
    )


class TestBulkAdmissionEquivalence:
    @CONTENDED
    def test_contended_matches_scalar(self, request, zoo_contended, where, make):
        """Europe's 5 DCs, then the zoo's bucket matrices up to global's
        21 DCs (43 columns with the end marker)."""
        if where == "europe":
            scenario = request.getfixturevalue("contended")
            table = request.getfixturevalue("day_table")
        else:
            scenario, table = zoo_contended(where)
        scalar = _replay_both(scenario, [table], make)
        assert scalar.stats.unplanned > len(table) // 4
        assert scalar.tracker._internet.any()

    @FIRST_JOINER
    def test_unordered_rows_match_scalar(self, small_setup, contended, make):
        generator = TraceGenerator(
            small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
        )
        table = _permuted(generator.table_for_day(30), seed=11)
        assert (np.diff(table.start_slot) < 0).any()
        _replay_both(contended, [table], make)

    @FIRST_JOINER
    def test_split_tables_match_one_scalar_pass(self, small_setup, contended, make):
        generator = TraceGenerator(
            small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
        )
        first = generator.table_for_window(30 * 48 + 14, 5)
        second = generator.table_for_window(30 * 48 + 19, 5, id_offset=len(first))
        _replay_both(contended, [first, second], make)

    @FIRST_JOINER
    def test_outside_country_rejected(self, small_setup, make):
        """A participant country outside the scenario has no usage row:
        the scalar loop and the bulk path both raise the KeyError that
        scoring raises for it."""
        scenario = small_setup.scenario
        outside = "US"
        assert outside not in scenario.country_codes
        configs = [
            CallConfig.from_counts({"GB": 3}, "video"),
            CallConfig.from_counts({"GB": 2, outside: 1}, "video"),
        ]
        table = _mixed_table(configs, 50, seed=2)  # first joiners GB
        assert (table.config_idx == 1).any()
        message = (f"config country {outside!r} is not part of the scenario",)
        with pytest.raises(KeyError) as scoring:
            scenario.eval_tables(configs)
        assert scoring.value.args == message
        scalar = make(scenario)
        with pytest.raises(KeyError) as loop:
            for call in table.to_calls():
                scalar.process(call)
        assert loop.value.args == message
        with pytest.raises(KeyError) as bulk:
            make(scenario).process_table(table)
        assert bulk.value.args == message


class TestFirstJoinerEdgeCases:
    """WRR's tie rules and degenerate inputs: batch ≡ scalar, down to
    the tracker's usage, bit for bit."""

    def test_zero_wan_weight_ties_keep_key_order(self, small_setup, day_table):
        """Internet fraction 1.0 makes a WAN bucket's weight 0, so its
        Efraimidis–Spirakis key is -inf and ties with the other -inf
        keys: the scalar stable sort keeps key order among them."""
        scenario = small_setup.scenario
        full = {(country, dc): 1.0 for country in ("GB", "FR", "NL") for dc in scenario.dc_codes}
        tied = _scaled_copy(scenario, 0.2, fractions=full)
        _, weights = FirstJoinerWrr(tied)._buckets("GB")
        assert np.count_nonzero(weights == 0) == len(scenario.dc_codes)
        _replay_both(tied, [day_table], MAKERS["wrr"])
        # Contended, so calls fall through the tied WAN buckets past
        # the first DC's (the overflow's) to another DC's.
        batch = MAKERS["wrr"](tied).process_table(day_table)
        codes, country = _table_countries(day_table)
        tied_calls = np.isin(country, [codes.index(c) for c in ("GB", "FR", "NL")])
        on_wan = (batch.initial_option_idx == 0) & (batch.initial_dc_idx > 0)
        assert (tied_calls & on_wan).any()

    @FIRST_JOINER
    def test_country_without_internet_beside_full_rows(self, small_setup, make):
        """DE has no Internet bucket (5 buckets, then end markers) and
        GB ten: one table mixes both, under contention."""
        scenario = small_setup.scenario
        wrr = FirstJoinerWrr(scenario)
        assert len(wrr._buckets("DE")[0]) == len(scenario.dc_codes)
        assert len(wrr._buckets("GB")[0]) == 2 * len(scenario.dc_codes)
        configs = [
            CallConfig.from_counts({"DE": 3}, "video"),
            CallConfig.from_counts({"GB": 2, "DE": 1}, "video"),
            CallConfig.from_counts({"DE": 2, "GB": 2}, "audio"),
        ]
        table = _mixed_table(configs, 800, seed=4)
        scalar = _replay_both(_scaled_copy(scenario, 0.05), [table], make)
        assert scalar.stats.unplanned > 0

    @FIRST_JOINER
    def test_no_compute_overflows_every_call(self, small_setup, day_table, make):
        """All compute caps 0: every call overflows onto the first DC's
        WAN (WRR's weights are all 0 and its keys all -inf)."""
        scenario = _scaled_copy(small_setup.scenario, 1.0, compute_factor=0.0)
        scalar = _replay_both(scenario, [day_table], make)
        assert scalar.stats.unplanned == scalar.stats.calls == len(day_table)
        batch = make(scenario).process_table(day_table)
        assert not batch.initial_dc_idx.any() and not batch.initial_option_idx.any()

    def test_titan_without_compute_draws_dcs_equally(self, small_setup, day_table):
        """All compute caps 0: Titan's DC weights fall back to equal
        shares instead of dividing by the zero total, and batch ≡
        scalar call for call."""
        scenario = _scaled_copy(small_setup.scenario, 1.0, compute_factor=0.0)
        scalar, batched = FirstJoinerTitan(scenario, seed=4), FirstJoinerTitan(scenario, seed=4)
        reference = [scalar.process(call) for call in day_table.to_calls()]
        batch = batched.process_table(day_table)
        assert _placements(batch) == _placements(reference)
        assert batched.stats == scalar.stats
        n_dc = len(scenario.dc_codes)
        np.testing.assert_allclose(np.diff(batched._cum_probs, prepend=0.0), 1.0 / n_dc)
        assert set(batch.initial_dc_idx.tolist()) == set(range(n_dc))

    @FIRST_JOINER
    def test_zero_internet_gbps(self, small_setup, day_table, make):
        """No Internet capacity: every Internet bucket is refused."""
        scenario = _scaled_copy(small_setup.scenario, 0.0, compute_factor=0.2)
        scalar = _replay_both(scenario, [day_table], make)
        assert not scalar.tracker._internet.any()
        assert scalar.stats.unplanned > 0

    @FIRST_JOINER
    def test_one_call_table(self, small_setup, day_table, make):
        one = CallTable(
            day_table.configs,
            day_table.config_idx[:1],
            day_table.start_slot[:1],
            day_table.duration_slots[:1],
            day_table.first_joiner_idx[:1],
        )
        scalar = _replay_both(_scaled_copy(small_setup.scenario, 0.2), [one], make)
        assert scalar.stats.calls == 1


def _exhausted_entries(plan, slots):
    """Plan entries with no bucket above ``QUOTA_EPS`` left."""
    return sum(
        all(q <= QUOTA_EPS for q in plan.entry(slot, config).buckets.values())
        for slot in range(slots)
        for config in plan.configs_for_slot(slot)
    )


def _titan_next_both(scenario, assignment, tables, reduce_configs=True):
    """Scalar :meth:`process` over every table vs one ``process_table``
    per table on a twin controller: equal placements and stats after
    each table, and the scenario's DC codes.  The last table replays
    against the carried state (quota snapshot, stream position, recent
    keys).  Returns the scalar controller."""
    scalar, batched = (
        TitanNextController(
            scenario, OfflinePlan.from_assignment(assignment), seed=7,
            reduce_configs=reduce_configs,
        )
        for _ in range(2)
    )
    for table in tables:
        reference = [scalar.process(call) for call in table.to_calls()]
        batch = batched.process_table(table)
        assert _placements(batch) == _placements(reference)
        assert batched.stats == scalar.stats
        assert batch.dc_codes == tuple(scenario.dc_codes)
    return scalar


@pytest.fixture(scope="module")
def forecast_assignment(small_setup):
    predicted = predicted_demand_for_day(small_setup, day=30)
    result = JointAssignmentLp(small_setup.scenario, predicted).solve()
    assert result.is_optimal
    return result.assignment


@pytest.fixture(scope="module")
def scarce_assignment(plan_assignment):
    """``floor(0.3 x)`` of the oracle plan: integer quotas that run dry."""
    return {key: float(np.floor(0.3 * count)) for key, count in plan_assignment.items()}


@pytest.fixture(scope="module")
def full_day(small_setup):
    generator = TraceGenerator(small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5)
    return generator.table_for_day(30)


@pytest.fixture(scope="module")
def next_window(small_setup, full_day):
    """Fresh calls over busy slots of the same day, replayed last."""
    generator = TraceGenerator(small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=9)
    return generator.table_for_window(30 * 48 + 16, 4, id_offset=len(full_day))


def _split(table, parts):
    cuts = np.linspace(0, len(table), parts + 1).astype(int)
    return [
        CallTable(
            table.configs,
            table.config_idx[lo:hi],
            table.start_slot[lo:hi],
            table.duration_slots[lo:hi],
            table.first_joiner_idx[lo:hi],
            id_offset=table.id_offset + lo,
        )
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


class TestTitanNextBulkEquivalence:
    """The Titan-Next bulk replay against the scalar loop, including
    plans whose entries run dry mid-table (round breaks)."""

    def test_forecast_plan_day(self, small_setup, forecast_assignment, full_day, next_window):
        scalar = _titan_next_both(
            small_setup.scenario, forecast_assignment, [full_day, next_window]
        )
        # Forecast quotas are fractional: no entry can run dry.
        assert _exhausted_entries(scalar.plan, small_setup.scenario.slots_per_day) == 0

    def test_scarce_plan_runs_dry(self, small_setup, scarce_assignment, full_day, next_window):
        scalar = _titan_next_both(
            small_setup.scenario, scarce_assignment, [full_day, next_window]
        )
        assert _exhausted_entries(scalar.plan, small_setup.scenario.slots_per_day) > 0
        assert scalar.stats.unplanned > 0

    def test_scarce_plan_split_in_three(
        self, small_setup, scarce_assignment, full_day, next_window
    ):
        _titan_next_both(
            small_setup.scenario, scarce_assignment, _split(full_day, 3) + [next_window]
        )

    @pytest.mark.parametrize("plan", ["forecast_assignment", "scarce_assignment"])
    def test_permuted_rows(self, small_setup, full_day, next_window, plan, request):
        table = _permuted(full_day, seed=11)
        assert (np.diff(table.start_slot) < 0).any()
        _titan_next_both(
            small_setup.scenario, request.getfixturevalue(plan), [table, next_window]
        )

    def test_raw_configs(self, small_setup, scarce_assignment, full_day, next_window):
        _titan_next_both(
            small_setup.scenario, scarce_assignment, [full_day, next_window],
            reduce_configs=False,
        )

    def test_rejects_plan_dc_outside_scenario(self, small_setup, plan_assignment, day_table):
        """The batch indexes the scenario's DCs: a plan moved onto
        another DC raises the KeyError scoring raises for it."""
        scenario = small_setup.scenario
        outside = next(dc.code for dc in scenario.world.dcs if dc.code not in scenario.dc_codes)
        assignment = {
            (slot, config, outside if dc == "ireland" else dc, option): count
            for (slot, config, dc, option), count in plan_assignment.items()
        }
        controller = TitanNextController(scenario, OfflinePlan.from_assignment(assignment), seed=7)
        with pytest.raises(KeyError) as error:
            controller.process_table(day_table)
        assert error.value.args == (outside,)
        with pytest.raises(KeyError) as scoring:
            evaluate_batch(scenario, {(30, day_table.configs[0], outside, WAN): 1.0})
        assert scoring.value.args == (outside,)

    def test_chain_picks_reproduce_weighted_pick(self):
        """The lockstep walk against :func:`weighted_pick` and the
        scalar consume, op by op, on quotas that run dry, hold
        sub-unit remainders or sit at ``QUOTA_EPS``; ``u = 1.0`` takes
        the no-``target < cumulative`` branch (last positive bucket)."""
        rng = np.random.default_rng(3)
        quota = rng.choice([0.0, QUOTA_EPS, 0.4, 1.0, 2.0, 3.7, 5.0], size=(6, 4))
        quota[:, 0] += 1.0  # every entry starts live
        n = 400
        entry = rng.integers(0, 5, n).astype(np.int32)  # row 5 stays untouched
        call = np.arange(n)
        u = rng.random(n)
        u[::37] = 1.0
        u[::41] = 0.0
        mutating = rng.random(n) < 0.8
        dry = np.ones(len(quota), dtype=bool)
        pick, consumed, emptied = _chain_picks(quota, entry, call, u, mutating, dry)

        rows = [list(row) for row in quota]
        for i in range(n):
            row = rows[entry[i]]
            positive = [b for b, q in enumerate(row) if q > QUOTA_EPS]
            if not positive:
                continue  # an emptied entry: the round breaks before this op
            expected = positive[weighted_pick([row[b] for b in positive], float(u[i]))]
            assert pick[i] == expected
            took = bool(mutating[i]) and row[expected] >= 1.0 - QUOTA_EPS
            assert consumed[i] == took
            if took:
                row[expected] -= 1.0
            assert emptied[i] == (took and all(q <= QUOTA_EPS for q in row))
        assert emptied.any()


class TestAssignmentBatch:
    def test_views_and_counters(self, small_setup, day_table):
        controller = FirstJoinerTitan(small_setup.scenario, seed=4)
        batch = controller.process_table(day_table)
        assert isinstance(batch, AssignmentBatch)
        assert len(batch) == len(day_table)
        first = batch[0]
        assert first.call == day_table.call(0)
        assert batch[-1].call == day_table.call(len(day_table) - 1)
        # Titan never migrates: initial and final always agree.
        assert batch.dc_migrations == 0
        assert batch.option_migrations == 0
        assert all(not a.dc_migrated for a in batch)

    def test_realized_table_matches_per_call_accumulation(self, small_setup, day_table):
        """The group-by fold equals a per-call dict accumulation, on the
        day's own slot grid and on a coarser one."""
        from repro.analysis.metrics import realized_assignment_table

        controller = FirstJoinerWrr(small_setup.scenario, seed=3)
        batch = controller.process_table(day_table)
        for slots_per_day in (48, 16):
            vectorized = realized_assignment_table(batch, slots_per_day=slots_per_day)
            manual = {}
            for a in batch:
                key = (a.call.start_slot % slots_per_day, a.call.config, a.final_dc, a.final_option)
                manual[key] = manual.get(key, 0.0) + 1.0
            assert vectorized == manual


@pytest.mark.slow
class TestPipelineBatchPaths:
    def test_run_prediction_day_returns_batches_with_stats(self, small_setup):
        results = run_prediction_day(small_setup, day=30)
        for name, result in results.items():
            assert isinstance(result.assignments, AssignmentBatch)
            assert result.stats is not None
            assert result.stats.calls == len(result.assignments)
            table = result.realized_table()
            assert sum(table.values()) == pytest.approx(len(result.assignments))
        # Baselines never migrate; titan-next does its reconciliation.
        assert results["wrr"].stats.dc_migrations == 0
        assert results["lf"].stats.dc_migrations == 0
        assert results["titan"].stats.dc_migrations == 0
