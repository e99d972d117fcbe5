"""Tests for the synthetic demand process and trace generator."""

import math

import numpy as np
import pytest
from scipy import special

from repro.geo.world import default_world
from repro.workload.configs import CallConfig
from repro.workload.demand import (
    SLOTS_PER_DAY,
    ConfigUniverse,
    DemandModel,
    diurnal_factor,
    weekday_factor,
)
from repro.workload.media import AUDIO
from repro.workload.traces import Call, TraceGenerator
from tests.scalar_reference import counts_for_slot, sample_count


def full_poisson_walk(u, lam):
    """Poisson inverse CDF walking every small-rate entry until the
    largest rate resolves: the sampler's counts before it compacted
    resolved entries away, kept as the reference."""
    from repro.workload.demand import _SMALL_LAMBDA

    out = np.zeros(lam.shape, dtype=np.int64)
    small = lam <= _SMALL_LAMBDA
    if small.any():
        ls, us = lam[small], u[small]
        pmf = np.exp(-ls)
        cdf = pmf.copy()
        counts = np.zeros(ls.shape, dtype=np.int64)
        unresolved = us >= cdf
        peak = float(ls.max())
        k_max = int(math.ceil(peak + 12.0 * math.sqrt(peak) + 20.0))
        k = 0
        while k < k_max and unresolved.any():
            k += 1
            counts += unresolved
            pmf *= ls / k
            cdf += pmf
            unresolved &= us >= cdf
        out[small] = counts
    large = ~small
    if large.any():
        ll, ul = lam[large], u[large]
        vals = np.ceil(special.pdtrik(ul, ll))
        vals1 = np.maximum(vals - 1.0, 0.0)
        out[large] = np.where(special.pdtr(vals1, ll) >= ul, vals1, vals).astype(np.int64)
    return out


@pytest.fixture(scope="module")
def universe():
    return ConfigUniverse(default_world().europe_countries)


@pytest.fixture(scope="module")
def demand(universe):
    return DemandModel(universe, daily_calls=10_000)


class TestSeasonality:
    def test_diurnal_peaks_in_business_hours(self):
        values = [diurnal_factor(s) for s in range(SLOTS_PER_DAY)]
        peak_slot = int(np.argmax(values))
        assert 16 <= peak_slot <= 24  # 8:00 - 12:00

    def test_night_is_quiet(self):
        assert diurnal_factor(6) < 0.25 * max(diurnal_factor(s) for s in range(SLOTS_PER_DAY))

    def test_weekend_much_lower(self):
        assert weekday_factor(5) < 0.5 * weekday_factor(2)
        assert weekday_factor(6) < 0.5 * weekday_factor(2)

    def test_weekday_factor_validates(self):
        with pytest.raises(ValueError):
            weekday_factor(-1)


class TestConfigUniverse:
    def test_nonempty_and_sorted_by_weight(self, universe):
        demands = universe.demands
        assert len(demands) > 100
        weights = [d.weight for d in demands]
        assert weights == sorted(weights, reverse=True)

    def test_coverage_monotone(self, universe):
        assert universe.coverage(50) < universe.coverage(200) <= 1.0

    def test_top_configs_cover_most_weight(self, universe):
        # Paper: top 3,000 configs cover 90+% of calls; our scaled
        # universe shows the same concentration.
        assert universe.coverage(400) > 0.8

    def test_intra_country_configs_dominate_top(self, universe):
        top = universe.top(20)
        intra = sum(1 for d in top if d.config.is_intra_country)
        assert intra >= 15

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            ConfigUniverse([])


class TestDemandModel:
    def test_deterministic(self, universe):
        m1 = DemandModel(universe, daily_calls=5000, seed=9)
        m2 = DemandModel(universe, daily_calls=5000, seed=9)
        config = universe.configs[0]
        assert np.array_equal(m1.series(config, 17, 4), m2.series(config, 17, 4))
        assert np.array_equal(
            m1.counts_matrix(17, 4, top_n=20), m2.counts_matrix(17, 4, top_n=20)
        )

    def test_expected_counts_integrate_to_daily_calls(self, demand, universe):
        total = sum(
            demand.expected_count(d.config, slot)
            for d in universe.demands
            for slot in range(SLOTS_PER_DAY)
        )
        # Day 0 is Monday (weekday factor 1.0).
        assert total == pytest.approx(10_000, rel=0.01)

    def test_weekend_demand_lower(self, demand, universe):
        config = universe.configs[0]
        def day_total(day):
            return sum(
                demand.expected_count(config, day * SLOTS_PER_DAY + s) for s in range(SLOTS_PER_DAY)
            )

        weekday = day_total(2)
        weekend = day_total(5)
        assert weekend < 0.5 * weekday

    def test_unknown_config_has_zero_demand(self, demand):
        alien = CallConfig.from_counts({"US": 7}, AUDIO)
        assert demand.expected_count(alien, 0) == 0.0
        assert not demand.series(alien, 0, 1).any()

    def test_negative_slot_rejected(self, demand, universe):
        with pytest.raises(ValueError):
            demand.expected_count(universe.configs[0], -1)

    def test_invalid_daily_calls(self, universe):
        with pytest.raises(ValueError):
            DemandModel(universe, daily_calls=0)

    def test_series_matches_samples(self, demand, universe):
        config = universe.configs[0]
        series = demand.series(config, 10, 5)
        assert list(series) == [sample_count(demand, config, s) for s in range(10, 15)]

    def test_counts_for_slot_respects_top_n(self, demand):
        all_counts = demand.counts_matrix(20, 1)
        top_counts = demand.counts_matrix(20, 1, top_n=10)
        assert top_counts.shape == (10, 1)
        assert np.array_equal(top_counts, all_counts[:10])
        assert top_counts.sum() <= all_counts.sum()


class TestBatchDemand:
    """The array engine and its scalar views sample one stream."""

    def test_counts_matrix_matches_scalar_samples(self, demand, universe):
        matrix = demand.counts_matrix(17, 4, top_n=12)
        assert matrix.shape == (12, 4)
        for i, item in enumerate(universe.top(12)):
            for j in range(4):
                assert matrix[i, j] == sample_count(demand, item.config, 17 + j)

    def test_expected_matrix_matches_scalar(self, demand, universe):
        matrix = demand.expected_matrix(100, 6, top_n=8)
        for i, item in enumerate(universe.top(8)):
            for j in range(6):
                assert matrix[i, j] == demand.expected_count(item.config, 100 + j)

    def test_series_is_a_counts_matrix_row(self, demand, universe):
        matrix = demand.counts_matrix(40, 10, top_n=5)
        for i, item in enumerate(universe.top(5)):
            assert np.array_equal(demand.series(item.config, 40, 10), matrix[i])

    def test_windows_are_independent(self, demand):
        """Any window regenerates the same counts, however it is cut."""
        whole = demand.counts_matrix(0, 60, top_n=6)
        assert np.array_equal(whole[:, 25:40], demand.counts_matrix(25, 15, top_n=6))
        stitched = np.concatenate(
            [demand.counts_matrix(s, 20, top_n=6) for s in (0, 20, 40)], axis=1
        )
        assert np.array_equal(whole, stitched[:, :60])

    def test_counts_for_slot_matches_matrix(self, demand, universe):
        counts = counts_for_slot(demand, 20, top_n=30)
        matrix = demand.counts_matrix(20, 1, top_n=30)[:, 0]
        for i, item in enumerate(universe.top(30)):
            assert counts.get(item.config, 0) == matrix[i]
        assert all(v > 0 for v in counts.values())

    def test_day_shocks_matches_day_shock(self, demand):
        shocks = demand.day_shocks(3, 5)
        assert shocks.shape == (5,)
        assert list(shocks) == [demand.day_shock(3 + d) for d in range(5)]

    def test_negative_start_rejected(self, demand):
        with pytest.raises(ValueError):
            demand.expected_matrix(-1, 4)
        with pytest.raises(ValueError):
            demand.counts_matrix(-1, 4)
        with pytest.raises(ValueError):
            demand.series(demand.universe.configs[0], -1, 4)

    def test_empty_window(self, demand):
        assert demand.counts_matrix(10, 0, top_n=4).shape == (4, 0)

    def test_unknown_config_series_is_zero(self, demand):
        from repro.workload.demand import CallConfig

        alien = CallConfig.from_counts({"US": 7}, AUDIO)
        assert np.array_equal(demand.series(alien, 0, 5), np.zeros(5, dtype=np.int64))

    def test_poisson_inverse_cdf_properties(self):
        from repro.workload.demand import _poisson_from_uniform

        lam = np.full(4, 7.5)
        # u = 0 maps to the smallest count, monotone in u.
        counts = _poisson_from_uniform(np.array([0.0, 0.3, 0.7, 0.999999]), lam)
        assert counts[0] == 0
        assert (np.diff(counts) >= 0).all()
        # Zero rate always yields zero calls.
        assert _poisson_from_uniform(np.array([0.999]), np.array([0.0]))[0] == 0
        # The small-rate walk and the large-rate gamma inversion agree
        # where they meet (the hybrid threshold is an implementation
        # detail, not a distribution change).
        u = np.random.default_rng(3).random(2000)
        low = _poisson_from_uniform(u, np.full(2000, 128.0))
        high = _poisson_from_uniform(u, np.full(2000, np.nextafter(128.0, 129.0)))
        assert np.abs(low - high).max() <= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compacted_poisson_walk_matches_the_full_walk(self, seed):
        """The walk that compacts its resolved entries gives the counts
        of the walk that carries every entry to the largest rate's end,
        on rates either side of the small/large threshold."""
        from repro.workload.demand import _poisson_from_uniform

        rng = np.random.default_rng(seed)
        rates = np.array([0.0, 1e-3, 0.5, 3.0, 30.0, 127.9, 128.0, 129.0, 500.0])
        lam = rng.choice(rates, size=(40, 300))
        u = rng.random(lam.shape)
        u[:, 0] = 0.0
        u[:, 1] = 1.0 - 2.0**-53
        u[0] = 1.0 - 2.0**-53
        expected = full_poisson_walk(u, lam)
        assert np.array_equal(_poisson_from_uniform(u, lam), expected)
        for rate in rates:
            flat = np.full(u.shape, rate)
            assert np.array_equal(_poisson_from_uniform(u, flat), full_poisson_walk(u, flat))
        # One- and two-entry calls (``sample_count``) finish before any
        # compaction, so they exercise the walk on ``counts`` itself.
        for i in range(lam.shape[1]):
            one = (u[1:2, i], lam[1:2, i])
            two = (u[1:3, i], lam[1:3, i])
            assert np.array_equal(_poisson_from_uniform(*one), full_poisson_walk(*one))
            assert np.array_equal(_poisson_from_uniform(*two), full_poisson_walk(*two))

    def test_sampled_mean_tracks_rate(self, demand, universe):
        # Aggregate over a peak fortnight: the sampled mean stays close
        # to the expectation (the shock is mean ~1, Poisson is unbiased).
        item = universe.top(1)[0]
        slots = 2 * 7 * SLOTS_PER_DAY
        sampled = demand.counts_matrix(0, slots, top_n=1)[0].sum()
        expected = demand.expected_matrix(0, slots, top_n=1)[0].sum()
        assert sampled == pytest.approx(expected, rel=0.1)


class TestCoverageCache:
    def test_coverage_matches_direct_sum(self, universe):
        demands = universe.demands
        total = sum(d.weight for d in demands)
        for n in (1, 7, 50, len(demands)):
            direct = sum(d.weight for d in demands[:n]) / total
            assert universe.coverage(n) == pytest.approx(direct, rel=1e-12)

    def test_coverage_edge_cases(self, universe):
        assert universe.coverage(0) == 0.0
        assert universe.coverage(-3) == 0.0
        assert universe.coverage(10**9) == pytest.approx(1.0)


class TestTraceGenerator:
    def test_calls_match_demand_counts(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50)
        table = generator.table_for_window(20, 1)
        expected = demand.counts_matrix(20, 1, top_n=50)[:, 0]
        assert len(table) == expected.sum() > 0
        per_config = np.bincount(table.config_idx, minlength=len(table.configs))
        assert np.array_equal(per_config, expected)

    def test_first_joiner_belongs_to_config(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50)
        table = generator.table_for_window(21, 1)
        assert len(table) > 0
        for call in table:
            assert call.first_joiner_country in call.config.countries

    def test_call_ids_unique(self, demand):
        generator = TraceGenerator(demand, top_n_configs=50)
        ids = list(generator.table_for_window(18, 3).call_ids)
        assert len(ids) == len(set(ids)) > 0

    def test_deterministic(self, demand):
        g1 = TraceGenerator(demand, top_n_configs=50, seed=3)
        g2 = TraceGenerator(demand, top_n_configs=50, seed=3)
        c1 = g1.table_for_window(20, 1)
        c2 = g2.table_for_window(20, 1)
        assert len(c1) > 0
        assert c1.to_calls() == c2.to_calls()

    def test_call_validation(self, demand):
        config = CallConfig.from_counts({"DE": 2}, AUDIO)
        with pytest.raises(ValueError):
            Call(0, config, 0, 0, "DE")  # zero duration
        with pytest.raises(ValueError):
            Call(0, config, 0, 1, "FR")  # first joiner not in config

    def test_active_in(self, demand):
        config = CallConfig.from_counts({"DE": 2}, AUDIO)
        call = Call(0, config, 10, 2, "DE")
        assert call.active_in(10)
        assert call.active_in(11)
        assert not call.active_in(12)
        assert not call.active_in(9)

    def test_negative_window_rejected(self, demand):
        generator = TraceGenerator(demand)
        with pytest.raises(ValueError):
            generator.table_for_window(0, -1)

    def test_duration_distribution(self, demand):
        """Durations are geometric(0.6) clipped to [1, 6]: median ~1 slot."""
        generator = TraceGenerator(demand, top_n_configs=50, seed=3)
        durations = generator.table_for_window(18, 6).duration_slots
        assert durations.min() >= 1
        assert durations.max() <= 6
        assert np.median(durations) == 1
        # P(duration == 1) = 0.6 for the clipped geometric.
        assert 0.5 < (durations == 1).mean() < 0.7
