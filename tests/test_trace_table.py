"""CallTable: batched trace synthesis vs the scalar reference
(``tests/scalar_reference.py``)."""

import numpy as np
import pytest

from repro.core.titan_next import oracle_demand_for_day
from repro.geo.world import default_world
from repro.workload.configs import CallConfig
from repro.workload.demand import SLOTS_PER_DAY, ConfigUniverse, DemandModel
from repro.workload.traces import (
    MAX_DURATION_SLOTS,
    CallTable,
    TraceGenerator,
    duration_from_uniform,
    first_joiner_from_uniform,
)
from tests.scalar_reference import ScalarTraceGenerator


@pytest.fixture(scope="module")
def demand():
    universe = ConfigUniverse(default_world().europe_countries)
    return DemandModel(universe, daily_calls=10_000)


class TestDrawPrimitives:
    def test_duration_bounds_and_median(self):
        u = np.linspace(0.0, 1.0 - 1e-12, 100_001)
        durations = duration_from_uniform(u)
        assert durations.min() == 1
        assert durations.max() == MAX_DURATION_SLOTS
        # geometric(0.6): P(duration == 1) = 0.6, so the median is 1 slot.
        assert np.median(durations) == 1
        assert abs((durations == 1).mean() - 0.6) < 0.01

    def test_duration_scalar_matches_vector(self):
        u = np.array([0.0, 0.3, 0.59, 0.61, 0.9, 0.99, 0.999999])
        vector = duration_from_uniform(u)
        scalar = [int(duration_from_uniform(v)) for v in u]
        assert list(vector) == scalar

    def test_first_joiner_scalar_matches_vector(self):
        cum = np.cumsum([0.5, 0.25, 0.25])
        u = np.array([0.0, 0.49, 0.5, 0.74, 0.75, 0.999, 1.0])
        vector = first_joiner_from_uniform(cum, u)
        scalar = [int(first_joiner_from_uniform(cum, v)) for v in u]
        assert list(vector) == scalar
        assert vector.max() <= 2


class TestCallTableEquivalence:
    def test_table_matches_scalar_window(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50, seed=11)
        reference = ScalarTraceGenerator(demand, top_n_configs=50, seed=11)
        table = generator.table_for_window(30 * SLOTS_PER_DAY + 14, 6)
        calls = reference.calls_for_window(30 * SLOTS_PER_DAY + 14, 6)
        assert len(table) == len(calls)
        assert table.to_calls() == calls

    def test_table_matches_scalar_on_one_two_and_three_country_configs(self):
        """Only multi-country configs search for their first joiner (a
        single-country config's is always its one country).  A universe
        of one international pair has 2- and 3-country configs and no
        duplicates."""
        universe = ConfigUniverse(default_world().europe_countries, max_international_pairs=1)
        two_pairs = DemandModel(universe, daily_calls=10_000)
        start = 30 * SLOTS_PER_DAY + 20
        table = TraceGenerator(two_pairs, seed=5).table_for_window(start, 2)
        calls = ScalarTraceGenerator(two_pairs, seed=5).calls_for_window(start, 2)
        assert table.to_calls() == calls
        assert {len(call.config.countries) for call in calls} == {1, 2, 3}
        joiners = {call.config.countries.index(call.first_joiner_country) for call in calls}
        assert joiners == {0, 1, 2}

    def test_lazy_call_views(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50, seed=11)
        table = generator.table_for_window(20, 2)
        assert len(table) > 0
        first = table.call(0)
        assert first.call_id == 0
        assert first is not table.call(0)  # views are built on demand
        assert table.call(0) == first
        assert [c.call_id for c in table] == list(table.call_ids)
        assert table.call(-1) == table.call(len(table) - 1)

    def test_id_offset(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50, seed=11)
        table = generator.table_for_window(20, 1, id_offset=1000)
        assert table.call(0).call_id == 1000
        assert list(table.call_ids) == list(range(1000, 1000 + len(table)))

    def test_deterministic(self, demand):
        t1 = TraceGenerator(demand, top_n_configs=50, seed=3).table_for_window(20, 2)
        t2 = TraceGenerator(demand, top_n_configs=50, seed=3).table_for_window(20, 2)
        assert np.array_equal(t1.config_idx, t2.config_idx)
        assert np.array_equal(t1.duration_slots, t2.duration_slots)
        assert np.array_equal(t1.first_joiner_idx, t2.first_joiner_idx)

    def test_empty_window(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50)
        table = generator.table_for_window(0, 0)
        assert len(table) == 0
        assert table.to_calls() == []
        assert table.demand_table() == {}

    def test_negative_window_rejected(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50)
        with pytest.raises(ValueError):
            generator.table_for_window(0, -1)

    def test_table_validation(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50)
        table = generator.table_for_window(20, 1)
        with pytest.raises(ValueError):
            CallTable(
                table.configs,
                table.config_idx,
                table.start_slot[:-1],
                table.duration_slots,
                table.first_joiner_idx,
            )
        with pytest.raises(ValueError):
            CallTable(
                table.configs,
                table.config_idx,
                table.start_slot,
                np.zeros_like(table.duration_slots),
                table.first_joiner_idx,
            )


class TestDemandTable:
    def test_day_table_matches_oracle_demand(self, small_setup):
        """The trace folded back equals the demand the LP plans on."""
        generator = TraceGenerator(
            small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
        )
        table = generator.table_for_day(30)
        folded = table.demand_table(reduced=True, slots_per_day=SLOTS_PER_DAY)
        oracle = oracle_demand_for_day(small_setup, day=30, reduced=True)
        assert folded == oracle

    def test_raw_table_counts_calls(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50, seed=5)
        table = generator.table_for_window(20, 2)
        raw = table.demand_table(reduced=False)
        assert sum(raw.values()) == len(table)
        for (slot, config), count in raw.items():
            assert slot in (20, 21)
            assert isinstance(config, CallConfig)
            assert count >= 1
