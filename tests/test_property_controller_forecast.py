"""Property tests: controller invariants and forecaster robustness."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.controller import TitanNextController
from repro.core.forecast import HoltWinters
from repro.core.plan import OfflinePlan
from repro.net.latency import INTERNET, WAN
from repro.workload.configs import CallConfig
from repro.workload.media import AUDIO, SCREENSHARE, VIDEO
from repro.workload.traces import Call
from tests.scalar_reference import call_table

EU = ["GB", "FR", "NL", "IT", "ES", "PL"]
DCS = ["uk-south", "france-central", "westeurope", "switzerland-north", "ireland"]

call_st = st.builds(
    lambda cid, counts, media, slot, dur: Call(
        cid,
        CallConfig.from_counts(counts, media),
        slot,
        dur,
        sorted(counts)[0],
    ),
    cid=st.integers(min_value=0, max_value=10_000),
    counts=st.dictionaries(st.sampled_from(EU), st.integers(1, 4), min_size=1, max_size=2),
    media=st.sampled_from([AUDIO, SCREENSHARE, VIDEO]),
    slot=st.integers(min_value=0, max_value=47),
    dur=st.integers(min_value=1, max_value=4),
)

plan_entry_st = st.tuples(
    st.integers(min_value=0, max_value=47),
    st.dictionaries(st.sampled_from(EU), st.integers(1, 2), min_size=1, max_size=1),
    st.sampled_from([AUDIO, VIDEO]),
    st.sampled_from(DCS),
    st.sampled_from([WAN, INTERNET]),
    st.floats(min_value=1.0, max_value=50.0),
)


@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    calls=st.lists(call_st, min_size=1, max_size=25),
    entries=st.lists(plan_entry_st, max_size=10),
)
def test_controller_never_crashes_and_counts_consistently(small_setup, calls, entries):
    """Any call stream + any plan: valid assignments, consistent stats."""
    assignment_table = {}
    for slot, counts, media, dc, option, quota in entries:
        config = CallConfig.from_counts(counts, media)
        key = (slot, config, dc, option)
        assignment_table[key] = assignment_table.get(key, 0.0) + quota
    plan = OfflinePlan.from_assignment(assignment_table)
    controller = TitanNextController(small_setup.scenario, plan)
    outcomes = controller.process_table(call_table(calls))
    assert len(outcomes) == len(calls)
    assert controller.stats.calls == len(calls)
    assert controller.stats.dc_migrations <= len(calls)
    for outcome in outcomes:
        assert outcome.final_dc in small_setup.scenario.dc_codes
        assert outcome.final_option in (WAN, INTERNET)
        # A call that never migrated reports identical initial/final.
        if not outcome.dc_migrated:
            assert outcome.initial_dc == outcome.final_dc


@settings(max_examples=20, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=1000.0),
    offset=st.floats(min_value=0.0, max_value=500.0),
    seed=st.integers(min_value=0, max_value=100),
)
def test_holt_winters_scale_and_shift_equivariance(scale, offset, seed):
    """HW forecasts commute with affine transforms of the series."""
    rng = np.random.default_rng(seed)
    season = 24
    t = np.arange(season * 4)
    base = 50 + 10 * np.sin(2 * np.pi * t / season) + rng.normal(0, 1.0, size=t.size)
    base = np.maximum(base, 0)
    model = HoltWinters(season_length=season, alpha=0.3, beta=0.01, gamma=0.3)
    f_base = model.fit(base).forecast(season)
    f_scaled = model.fit(base * scale + offset).forecast(season)
    expected = np.maximum(0.0, f_base * scale + offset)
    assert np.allclose(f_scaled, expected, rtol=1e-6, atol=1e-6)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_holt_winters_handles_sparse_series(seed):
    """Mice configs: mostly-zero series must not break the fit."""
    rng = np.random.default_rng(seed)
    series = (rng.random(48 * 4) < 0.05).astype(float)
    model = HoltWinters(season_length=48, alpha=0.3, beta=0.01, gamma=0.3)
    forecast = model.fit(series).forecast(48)
    assert np.all(forecast >= 0)
    assert np.all(np.isfinite(forecast))
