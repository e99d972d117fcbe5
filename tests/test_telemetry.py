"""Tests for the MOS model (Fig 11)."""

import numpy as np
import pytest

from repro.telemetry.mos import MosModel, MosModelParams


class TestMos:
    def test_flat_below_knee(self):
        """Fig 11(a): minimal MOS impact under 75 ms."""
        model = MosModel()
        assert model.mean_mos(10) == model.mean_mos(75)

    def test_linear_decay_beyond_knee(self):
        """Fig 11(b): mostly linear degradation beyond the knee."""
        model = MosModel()
        drop_100_150 = model.mean_mos(100) - model.mean_mos(150)
        drop_150_200 = model.mean_mos(150) - model.mean_mos(200)
        assert drop_100_150 == pytest.approx(drop_150_200)

    def test_fig11_range(self):
        """MOS spans ~4.85 down to ~4.65 over 50-250 ms (Fig 11 axes)."""
        model = MosModel()
        assert 4.8 <= model.mean_mos(50) <= 4.9
        assert 4.6 <= model.mean_mos(250) <= 4.7

    def test_loss_penalty(self):
        model = MosModel()
        assert model.mean_mos(60, loss_pct=1.0) < model.mean_mos(60)

    def test_floor(self):
        model = MosModel()
        assert model.mean_mos(10_000, loss_pct=50.0) == MosModelParams().floor

    def test_validation(self):
        model = MosModel()
        with pytest.raises(ValueError):
            model.mean_mos(-1)
        with pytest.raises(ValueError):
            model.mean_mos(10, loss_pct=-1)
        with pytest.raises(ValueError):
            model.average_rating(10, samples=0)

    def test_ratings_are_discrete_stars(self):
        model = MosModel()
        rng = np.random.default_rng(11)
        for _ in range(50):
            rating = model.sample_rating(100, rng=rng)
            assert rating in (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_average_rating_tracks_curve(self):
        # Star discretization biases the average slightly below the
        # continuous curve (clipping at 5 stars), so allow ~0.2 slack
        # but require monotonicity in latency.
        model = MosModel()
        rng = np.random.default_rng(13)
        avg_low = model.average_rating(60, samples=4000, rng=rng)
        avg_high = model.average_rating(240, samples=4000, rng=rng)
        assert avg_low == pytest.approx(model.mean_mos(60), abs=0.2)
        assert avg_low > avg_high
