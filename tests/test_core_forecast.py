"""Tests for the from-scratch Holt-Winters forecaster."""

import numpy as np
import pytest

from repro.core.forecast import HoltWinters, forecast_day, normalized_errors
from repro.geo.world import default_world
from repro.workload.demand import SLOTS_PER_DAY, ConfigUniverse, DemandModel


def _seasonal_series(periods, season=48, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    base = 100 + 50 * np.sin(2 * np.pi * np.arange(season) / season)
    series = np.tile(base, periods)
    if noise:
        series = series + rng.normal(0, noise, size=series.size)
    return series


class TestHoltWinters:
    def test_perfect_seasonal_signal_recovered(self):
        series = _seasonal_series(4)
        model = HoltWinters(season_length=48, alpha=0.3, beta=0.01, gamma=0.3)
        forecast = model.fit(series).forecast(48)
        expected = _seasonal_series(1)
        assert np.allclose(forecast, expected, rtol=0.03, atol=3.0)

    def test_trend_extrapolated(self):
        season = 24
        t = np.arange(season * 6)
        series = 50 + 0.5 * t + 10 * np.sin(2 * np.pi * t / season)
        model = HoltWinters(season_length=season, alpha=0.3, beta=0.05, gamma=0.3)
        forecast = model.fit(series).forecast(season)
        future = 50 + 0.5 * (t[-1] + 1 + np.arange(season)) + 10 * np.sin(
            2 * np.pi * (t[-1] + 1 + np.arange(season)) / season
        )
        assert np.mean(np.abs(forecast - future)) < 8.0

    def test_needs_two_seasons(self):
        model = HoltWinters(season_length=48)
        with pytest.raises(ValueError):
            model.fit(np.ones(90))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HoltWinters(season_length=1)
        with pytest.raises(ValueError):
            HoltWinters(alpha=1.5)

    def test_forecasts_are_non_negative(self):
        series = np.maximum(0, _seasonal_series(4, noise=80.0, seed=2))
        model = HoltWinters(season_length=48, alpha=0.5, beta=0.05, gamma=0.5)
        forecast = model.fit(series).forecast(96)
        assert np.all(forecast >= 0)

    def test_grid_search_beats_or_matches_fixed(self):
        series = _seasonal_series(4, noise=10.0, seed=3)
        searched = HoltWinters(season_length=48).fit(series)
        fixed = HoltWinters(season_length=48, alpha=0.1, beta=0.01, gamma=0.1).fit(series)
        assert searched.sse <= fixed.sse + 1e-9

    def test_negative_horizon_rejected(self):
        series = _seasonal_series(3)
        fit = HoltWinters(season_length=48, alpha=0.3, beta=0.01, gamma=0.3).fit(series)
        with pytest.raises(ValueError):
            fit.forecast(-1)

    def test_zero_horizon(self):
        series = _seasonal_series(3)
        fit = HoltWinters(season_length=48, alpha=0.3, beta=0.01, gamma=0.3).fit(series)
        assert fit.forecast(0).size == 0


def _series_batch(n=6, season=48, periods=4, seed=5):
    """A batch of noisy seasonal series with varied shapes and trends."""
    rng = np.random.default_rng(seed)
    t = np.arange(season * periods)
    rows = []
    for i in range(n):
        base = 80 + 10 * i
        amp = 20 + 5 * i
        trend = 0.05 * i
        rows.append(
            base
            + trend * t
            + amp * np.sin(2 * np.pi * (t + 3 * i) / season)
            + rng.normal(0, 4.0, size=t.size)
        )
    return np.array(rows)


class TestFitMany:
    def test_matches_per_series_fit_with_fixed_constants(self):
        X = _series_batch()
        model = HoltWinters(season_length=48, alpha=0.3, beta=0.01, gamma=0.3)
        batch = model.fit_many(X)
        for i in range(X.shape[0]):
            single = model.fit(X[i])
            assert batch.level[i] == pytest.approx(single.level, rel=1e-12, abs=1e-12)
            assert batch.trend[i] == pytest.approx(single.trend, rel=1e-12, abs=1e-12)
            assert batch.sse[i] == pytest.approx(single.sse, rel=1e-12)
            np.testing.assert_allclose(batch.seasonals[i], single.seasonals, rtol=1e-12, atol=1e-12)

    def test_grid_search_matches_per_series_fit(self):
        """Unset constants: fit_many picks each series' own SSE minimizer."""
        X = _series_batch(n=4, season=24, periods=3, seed=11)
        model = HoltWinters(season_length=24)
        batch = model.fit_many(X)
        for i in range(X.shape[0]):
            single = model.fit(X[i])
            assert (batch.alpha[i], batch.beta[i], batch.gamma[i]) == (
                single.alpha,
                single.beta,
                single.gamma,
            )
            assert batch.sse[i] == pytest.approx(single.sse, rel=1e-12)

    def test_forecast_matrix_matches_individual_forecasts(self):
        X = _series_batch()
        model = HoltWinters(season_length=48, alpha=0.3, beta=0.01, gamma=0.3)
        batch = model.fit_many(X)
        forecasts = batch.forecast(96)
        assert forecasts.shape == (X.shape[0], 96)
        for i in range(X.shape[0]):
            np.testing.assert_allclose(
                forecasts[i], model.fit(X[i]).forecast(96), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                forecasts[i], batch.result(i).forecast(96), rtol=1e-12, atol=1e-12
            )

    def test_forecasts_clipped_at_zero(self):
        X = np.maximum(0.0, _series_batch(seed=2) - 90.0)
        model = HoltWinters(season_length=48, alpha=0.5, beta=0.05, gamma=0.5)
        assert (model.fit_many(X).forecast(48) >= 0).all()

    def test_requires_two_seasons(self):
        model = HoltWinters(season_length=48)
        with pytest.raises(ValueError):
            model.fit_many(np.ones((3, 90)))

    def test_requires_matrix(self):
        model = HoltWinters(season_length=48)
        with pytest.raises(ValueError):
            model.fit_many(np.ones(96))

    def test_empty_batch(self):
        model = HoltWinters(season_length=48, alpha=0.3, beta=0.01, gamma=0.3)
        batch = model.fit_many(np.zeros((0, 96)))
        assert batch.n_series == 0
        assert batch.forecast(48).shape == (0, 48)

    def test_zero_horizon(self):
        model = HoltWinters(season_length=48, alpha=0.3, beta=0.01, gamma=0.3)
        assert model.fit_many(_series_batch(n=2)).forecast(0).shape == (2, 0)

    def test_negative_horizon_rejected(self):
        model = HoltWinters(season_length=48, alpha=0.3, beta=0.01, gamma=0.3)
        with pytest.raises(ValueError):
            model.fit_many(_series_batch(n=2)).forecast(-1)


class TestNormalizedErrors:
    def test_zero_for_perfect_prediction(self):
        mae, rmse = normalized_errors([1, 2, 3], [1, 2, 3])
        assert mae == 0.0
        assert rmse == 0.0

    def test_normalized_by_peak(self):
        mae, rmse = normalized_errors([10.0, 10.0], [8.0, 12.0])
        assert mae == pytest.approx(0.2)
        assert rmse == pytest.approx(0.2)

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(1)
        actual = rng.uniform(1, 100, 50)
        predicted = actual + rng.normal(0, 10, 50)
        mae, rmse = normalized_errors(actual, predicted)
        assert rmse >= mae

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            normalized_errors([1, 2], [1])
        with pytest.raises(ValueError):
            normalized_errors([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            normalized_errors([], [])

    def test_all_zero_series(self):
        assert normalized_errors([0, 0], [0, 0]) == (0.0, 0.0)

    def test_zero_peak_with_nonzero_prediction(self):
        # A config that never had calls has no peak to normalize to;
        # the Fig 20 metric defines its error as zero even when the
        # forecaster predicted something.
        assert normalized_errors([0, 0], [3.0, 1.0]) == (0.0, 0.0)


class TestDemandForecastAccuracy:
    def test_fig20_shape_on_synthetic_demand(self):
        """Median normalized MAE/RMSE are small for top configs (Fig 20).

        The paper reports medians of 4.9% (MAE) and 10.6% (RMSE); the
        exact numbers scale with call volume (Poisson noise), so we
        assert the qualitative claim at a volume our test budget allows.
        """
        world = default_world()
        universe = ConfigUniverse(world.europe_countries)
        demand = DemandModel(universe, daily_calls=120_000)
        maes, rmses = [], []
        for item in universe.top(12):
            history = demand.series(item.config, 0, 4 * 7 * SLOTS_PER_DAY)
            actual = demand.series(item.config, 4 * 7 * SLOTS_PER_DAY, SLOTS_PER_DAY)
            predicted = forecast_day(history)
            mae, rmse = normalized_errors(actual, predicted)
            maes.append(mae)
            rmses.append(rmse)
        assert np.median(maes) < 0.15
        assert np.median(rmses) < 0.25
        assert np.median(rmses) >= np.median(maes)
