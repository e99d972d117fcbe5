"""Tests for call configs and the reduced-config machinery (§6.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.configs import CallConfig
from repro.workload.media import AUDIO, SCREENSHARE, VIDEO, dominant_media, media_rank, profile
from tests.scalar_reference import group_by_reduced


class TestMedia:
    def test_ordering_matches_paper(self):
        # §5: audio < screen-share < video.
        assert media_rank(AUDIO) < media_rank(SCREENSHARE) < media_rank(VIDEO)

    def test_dominant_media(self):
        assert dominant_media([AUDIO, VIDEO, AUDIO]) == VIDEO
        assert dominant_media([AUDIO, SCREENSHARE]) == SCREENSHARE
        assert dominant_media([AUDIO]) == AUDIO

    def test_dominant_media_empty(self):
        with pytest.raises(ValueError):
            dominant_media([])

    def test_unknown_media(self):
        with pytest.raises(ValueError):
            media_rank("hologram")
        with pytest.raises(ValueError):
            profile("hologram")

    def test_video_costs_more_than_audio(self):
        assert profile(VIDEO).bandwidth_kbps > profile(AUDIO).bandwidth_kbps
        assert profile(VIDEO).compute_cores > profile(AUDIO).compute_cores


class TestCallConfig:
    def test_paper_example(self):
        # ((France-2, UK-1), Audio) from §5.
        config = CallConfig.from_counts({"FR": 2, "GB": 1}, AUDIO)
        assert config.total_participants == 3
        assert config.count_for("FR") == 2
        assert config.count_for("US") == 0
        assert not config.is_intra_country

    def test_sorted_participants_enforced(self):
        with pytest.raises(ValueError):
            CallConfig((("GB", 1), ("FR", 2)), AUDIO)

    def test_duplicate_country_rejected(self):
        with pytest.raises(ValueError):
            CallConfig((("FR", 1), ("FR", 2)), AUDIO)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            CallConfig((("FR", 0),), AUDIO)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CallConfig((), AUDIO)

    def test_from_participants(self):
        config = CallConfig.from_participants(["DE", "DE", "FR"], [AUDIO, VIDEO, AUDIO])
        assert config.media == VIDEO
        assert config.count_for("DE") == 2

    def test_str_roundtrip_is_stable(self):
        config = CallConfig.from_counts({"FR": 2, "GB": 1}, AUDIO)
        assert str(config) == "((FR-2, GB-1), audio)"

    def test_resource_accounting_scales_with_participants(self):
        small = CallConfig.from_counts({"DE": 1}, VIDEO)
        big = CallConfig.from_counts({"DE": 3}, VIDEO)
        assert big.compute_cores() == pytest.approx(3 * small.compute_cores())
        assert big.bandwidth_gbps() == pytest.approx(3 * small.bandwidth_gbps())

    def test_country_bandwidth(self):
        config = CallConfig.from_counts({"FR": 2, "GB": 1}, AUDIO)
        gb = config.country_bandwidth_gbps("GB")
        assert config.country_bandwidth_gbps("FR") == pytest.approx(2 * gb)


class TestReduction:
    def test_paper_example_intra_country(self):
        # (Germany-2, Audio) -> (Germany-1, Audio).
        config = CallConfig.from_counts({"DE": 2}, AUDIO)
        assert config.reduced() == CallConfig.from_counts({"DE": 1}, AUDIO)
        assert config.reduction_factor() == 2

    def test_de2_and_de3_share_reduced_config(self):
        # The §6.2 grouping example.
        a = CallConfig.from_counts({"DE": 2}, AUDIO)
        b = CallConfig.from_counts({"DE": 3}, AUDIO)
        assert a.reduced() == b.reduced()

    def test_gcd_reduction_international(self):
        config = CallConfig.from_counts({"DE": 2, "FR": 4}, VIDEO)
        assert config.reduced() == CallConfig.from_counts({"DE": 1, "FR": 2}, VIDEO)

    def test_coprime_config_is_its_own_reduction(self):
        config = CallConfig.from_counts({"DE": 2, "FR": 3}, VIDEO)
        assert config.reduced() == config
        assert config.reduction_factor() == 1

    def test_media_types_never_merge(self):
        audio = CallConfig.from_counts({"DE": 2}, AUDIO)
        video = CallConfig.from_counts({"DE": 2}, VIDEO)
        assert audio.reduced() != video.reduced()

    def test_group_by_reduced_scales_counts(self):
        # 100 calls of (DE-2, audio) -> 200 calls of (DE-1, audio) (§6.2).
        counts = {CallConfig.from_counts({"DE": 2}, AUDIO): 100}
        grouped = group_by_reduced(counts)
        assert grouped == {CallConfig.from_counts({"DE": 1}, AUDIO): 200}

    def test_group_preserves_resources(self):
        counts = {
            CallConfig.from_counts({"DE": 2}, AUDIO): 100,
            CallConfig.from_counts({"DE": 3}, AUDIO): 50,
            CallConfig.from_counts({"DE": 2, "FR": 2}, VIDEO): 10,
        }
        grouped = group_by_reduced(counts)
        original_cores = sum(c.compute_cores() * n for c, n in counts.items())
        grouped_cores = sum(c.compute_cores() * n for c, n in grouped.items())
        assert grouped_cores == pytest.approx(original_cores)
        original_bw = sum(c.bandwidth_gbps() * n for c, n in counts.items())
        grouped_bw = sum(c.bandwidth_gbps() * n for c, n in grouped.items())
        assert grouped_bw == pytest.approx(original_bw)

    def test_group_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            group_by_reduced({CallConfig.from_counts({"DE": 1}, AUDIO): -1})


countries_st = st.dictionaries(
    st.sampled_from(["DE", "FR", "GB", "NL", "IT"]),
    st.integers(min_value=1, max_value=12),
    min_size=1,
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(counts=countries_st, media=st.sampled_from([AUDIO, SCREENSHARE, VIDEO]))
def test_reduction_properties(counts, media):
    config = CallConfig.from_counts(counts, media)
    reduced = config.reduced()
    factor = config.reduction_factor()
    # Idempotent.
    assert reduced.reduced() == reduced
    # Media preserved.
    assert reduced.media == config.media
    # Counts scale exactly by the factor.
    assert reduced.total_participants * factor == config.total_participants
    # Resource equivalence: factor * reduced == original.
    assert factor * reduced.compute_cores() == pytest.approx(config.compute_cores())
    # Per-country proportions preserved.
    for country, count in config.participants:
        assert reduced.count_for(country) * factor == count
