"""Tests for call records, RTP loss accounting, and the MOS model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.mos import MosModel, MosModelParams
from repro.telemetry.records import CallRecordStore, ParticipantRecord
from repro.telemetry.rtp import SEQ_SPACE, RtpLossAccountant, simulate_stream
from repro.workload.configs import CallConfig
from repro.workload.media import AUDIO, VIDEO


def _record(call_id=1, country="FR", latency=20.0, slot=0, **kwargs):
    return ParticipantRecord(
        call_id=call_id,
        country_code=country,
        media=kwargs.get("media", VIDEO),
        start_slot=slot,
        mp_dc_code=kwargs.get("dc", "westeurope"),
        routing_option=kwargs.get("option", "wan"),
        latency_ms=latency,
        loss_pct=kwargs.get("loss", 0.0),
    )


class TestRecords:
    def test_append_and_query(self):
        store = CallRecordStore()
        store.append(_record(call_id=1, slot=5))
        store.append(_record(call_id=1, slot=5, latency=30.0))
        store.append(_record(call_id=2, slot=6))
        assert len(store) == 3
        assert len(store.records_for_call(1)) == 2
        assert len(store.records_in_slot(6)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            _record(latency=-1.0)
        with pytest.raises(ValueError):
            _record(loss=150.0)

    def test_max_e2e_is_sum_of_top_two(self):
        store = CallRecordStore()
        store.append(_record(call_id=1, latency=10.0))
        store.append(_record(call_id=1, latency=50.0))
        store.append(_record(call_id=1, latency=100.0))
        # Fig 10: users B and C -> 50 + 100 = 150 ms.
        assert store.max_e2e_latency_ms(1) == 150.0

    def test_max_e2e_single_participant_doubles(self):
        store = CallRecordStore()
        store.append(_record(call_id=7, latency=40.0))
        assert store.max_e2e_latency_ms(7) == 80.0

    def test_max_e2e_unknown_call(self):
        assert CallRecordStore().max_e2e_latency_ms(99) is None

    def test_demand_series(self):
        store = CallRecordStore()
        config = CallConfig.from_counts({"FR": 2}, AUDIO)
        store.record_call(1, config, 3)
        store.record_call(2, config, 3)
        store.record_call(3, config, 5)
        assert store.demand_series(config, 3, 3) == [2, 0, 1]

    def test_configs_seen_ordered_by_count(self):
        store = CallRecordStore()
        a = CallConfig.from_counts({"FR": 2}, AUDIO)
        b = CallConfig.from_counts({"DE": 1}, VIDEO)
        for i in range(3):
            store.record_call(i, a, 0)
        store.record_call(10, b, 0)
        assert store.configs_seen() == [a, b]


class TestRtp:
    def test_no_loss(self):
        acc = RtpLossAccountant()
        for seq in range(100):
            acc.observe(seq)
        stats = acc.stats()
        assert stats.lost == 0
        assert stats.loss_fraction == 0.0

    def test_missing_sequences_counted(self):
        acc = RtpLossAccountant()
        for seq in (0, 1, 2, 5, 6):  # 3 and 4 lost
            acc.observe(seq)
        stats = acc.stats()
        assert stats.expected == 7
        assert stats.lost == 2
        assert stats.loss_pct == pytest.approx(100 * 2 / 7)

    def test_wraparound(self):
        acc = RtpLossAccountant()
        for seq in (SEQ_SPACE - 2, SEQ_SPACE - 1, 0, 1):
            acc.observe(seq)
        stats = acc.stats()
        assert stats.expected == 4
        assert stats.lost == 0

    def test_out_of_range_rejected(self):
        acc = RtpLossAccountant()
        with pytest.raises(ValueError):
            acc.observe(SEQ_SPACE)
        with pytest.raises(ValueError):
            acc.observe(-1)

    def test_empty_stream(self):
        stats = RtpLossAccountant().stats()
        assert stats.expected == 0
        assert stats.loss_fraction == 0.0

    def test_simulated_stream_recovers_loss_rate(self):
        rng = np.random.default_rng(5)
        stats = simulate_stream(50_000, 3.0, rng)
        assert stats.loss_pct == pytest.approx(3.0, abs=0.4)

    def test_simulated_stream_wraps(self):
        rng = np.random.default_rng(6)
        stats = simulate_stream(100_000, 0.5, rng, start_seq=SEQ_SPACE - 50)
        assert stats.expected == 100_000

    def test_simulate_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_stream(-1, 1.0, rng)
        with pytest.raises(ValueError):
            simulate_stream(10, 101.0, rng)

    @settings(max_examples=30, deadline=None)
    @given(
        loss=st.floats(min_value=0.0, max_value=50.0), n=st.integers(min_value=1, max_value=2000)
    )
    def test_accounting_never_negative(self, loss, n):
        rng = np.random.default_rng(42)
        stats = simulate_stream(n, loss, rng)
        assert stats.lost >= 0
        assert 0.0 <= stats.loss_fraction <= 1.0


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
