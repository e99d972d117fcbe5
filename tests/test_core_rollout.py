"""The §4.1(1) granular rollout ladder: promotion, demotion, parking.

:class:`~repro.core.rollout.GranularRollout` climbs cohort → metro →
ASN → country on healthy streaks, falls back to the cohort stage on a
severe regression, steps down one stage on a moderate one, and parks a
pair after repeated failures.  These tests drive the ladder with a
scripted prober so each transition fires deterministically.
"""

import pytest

from repro.core.rollout import STAGE_NAMES, GranularRollout, RolloutState, stage_share
from repro.net.latency import WAN

HEALTHY = (50.0, 0.05, 2.0)  # latency at baseline, loss below every gate
MODERATE = (50.0, 0.5, 2.0)  # p50 loss ≥ 0.1% but < 1%: one stage down
SEVERE = (50.0, 5.0, 2.0)  # p50 loss ≥ 1%: emergency demotion to cohort
CONTROL = (55.0, 0.0, 1.0)  # WAN arm, never consulted by the gates


class _FakeLatency:
    def base_rtt_ms(self, country_code, dc_code, option):
        return 50.0


class ScriptedProber:
    """A prober whose Internet-arm metrics follow a per-round script.

    ``script`` maps round index → metrics tuple; rounds past the end
    reuse the last entry.  The WAN (control) arm is always healthy.
    """

    def __init__(self, script):
        self.latency = _FakeLatency()
        self.script = list(script)

    def user_metrics(self, country_code, dc_code, option, fraction, slot, rng):
        if option == WAN:
            return CONTROL
        round_index = min(slot // 48, len(self.script) - 1)
        return self.script[round_index]


def make_rollout(world, script, pairs=(("DE", "westeurope"),), **kwargs):
    return GranularRollout(world, ScriptedProber(script), list(pairs), **kwargs)


@pytest.fixture(scope="module")
def world(small_setup):
    return small_setup.scenario.world


class TestLadderShape:
    def test_stage_order_and_shares_are_monotone(self):
        assert STAGE_NAMES == ("cohort", "metro", "asn", "country")
        shares = [stage_share(name) for name in STAGE_NAMES]
        assert shares == sorted(shares)
        assert shares[-1] == 1.0

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            stage_share("continent")

    def test_parked_state_exposes_nothing(self):
        state = RolloutState("DE", "westeurope", parked=True)
        assert state.exposed_share == 0.0


class TestPromotion:
    def test_healthy_streak_climbs_to_country(self, world):
        rollout = make_rollout(world, [HEALTHY] * 10, promotions_needed=2)
        state = rollout.states[("DE", "westeurope")]
        assert state.stage == "cohort"
        rollout.run(2)
        assert state.stage == "metro"
        # 2 rounds per promotion, 3 promotions to reach country level.
        rollout.run(4)
        assert state.stage == "country"
        assert rollout.ready_for_percentage_ramp() == [("DE", "westeurope")]
        assert state.demotions == 0

    def test_country_level_pairs_stop_evaluating(self, world):
        # Healthy to the top, then severe forever: a pair already at
        # country level has been handed to Titan's percentage ramp and
        # the ladder must not demote it.
        rollout = make_rollout(world, [HEALTHY] * 6 + [SEVERE] * 4, promotions_needed=1)
        state = rollout.states[("DE", "westeurope")]
        rollout.run(3)
        assert state.stage == "country"
        rollout.run(4)
        assert state.stage == "country"
        assert state.demotions == 0

    def test_streak_resets_on_promotion(self, world):
        rollout = make_rollout(world, [HEALTHY] * 3, promotions_needed=3)
        state = rollout.states[("DE", "westeurope")]
        rollout.run(3)
        assert state.stage == "metro"
        assert state.healthy_streak == 0


class TestDemotion:
    def test_severe_regression_demotes_to_cohort(self, world):
        # Climb to ASN (4 healthy rounds at promotions_needed=2), then
        # one severe round: straight back to the cohort stage.
        rollout = make_rollout(world, [HEALTHY] * 4 + [SEVERE], promotions_needed=2)
        state = rollout.states[("DE", "westeurope")]
        rollout.run(4)
        assert state.stage == "asn"
        rollout.run(1)
        assert state.stage == "cohort"
        assert state.demotions == 1
        assert state.healthy_streak == 0

    def test_moderate_regression_steps_down_one_stage(self, world):
        rollout = make_rollout(world, [HEALTHY] * 4 + [MODERATE], promotions_needed=2)
        state = rollout.states[("DE", "westeurope")]
        rollout.run(4)
        assert state.stage == "asn"
        rollout.run(1)
        assert state.stage == "metro"
        assert state.demotions == 1

    def test_moderate_at_cohort_stays_at_cohort(self, world):
        rollout = make_rollout(world, [MODERATE], promotions_needed=2)
        state = rollout.states[("DE", "westeurope")]
        rollout.run(1)
        assert state.stage == "cohort"
        assert state.demotions == 1
        assert not state.parked


class TestParking:
    def test_repeated_severe_failures_park_the_pair(self, world):
        rollout = make_rollout(world, [SEVERE] * 5, demotions_to_park=3)
        state = rollout.states[("DE", "westeurope")]
        rollout.run(2)
        assert not state.parked
        rollout.run(1)
        assert state.parked
        assert state.exposed_share == 0.0
        assert rollout.parked_pairs() == [("DE", "westeurope")]
        assert rollout.ready_for_percentage_ramp() == []

    def test_parked_pairs_record_history_but_never_evaluate(self, world):
        rollout = make_rollout(world, [SEVERE] * 6, demotions_to_park=1)
        state = rollout.states[("DE", "westeurope")]
        rollout.run(4)
        assert state.parked
        assert state.demotions == 1  # parked after the first, no further evals
        assert state.history[-3:] == ["parked", "parked", "parked"]

    def test_mixed_pairs_park_independently(self, world):
        class SplitProber(ScriptedProber):
            """FR's Internet path is broken; everyone else is healthy."""

            def user_metrics(self, country_code, dc_code, option, fraction, slot, rng):
                if option != WAN and country_code == "FR":
                    return SEVERE
                return super().user_metrics(country_code, dc_code, option, fraction, slot, rng)

        rollout = GranularRollout(
            world,
            SplitProber([HEALTHY]),
            [("DE", "westeurope"), ("FR", "westeurope")],
            promotions_needed=1,
            demotions_to_park=2,
        )
        rollout.run(3)
        assert rollout.states[("DE", "westeurope")].stage == "country"
        assert rollout.states[("FR", "westeurope")].parked
        assert rollout.parked_pairs() == [("FR", "westeurope")]
        assert rollout.ready_for_percentage_ramp() == [("DE", "westeurope")]

    def test_history_tracks_every_round(self, world):
        rollout = make_rollout(world, [HEALTHY] * 3, promotions_needed=1)
        state = rollout.states[("DE", "westeurope")]
        rollout.run(3)
        assert state.history == ["metro", "asn", "country"]


class TestValidation:
    def test_empty_pairs_rejected(self, world):
        with pytest.raises(ValueError):
            GranularRollout(world, ScriptedProber([HEALTHY]), [])

    def test_thresholds_validated(self, world):
        with pytest.raises(ValueError):
            make_rollout(world, [HEALTHY], promotions_needed=0)
        with pytest.raises(ValueError):
            make_rollout(world, [HEALTHY], demotions_to_park=0)

    def test_unknown_pair_rejected(self, world):
        with pytest.raises(KeyError):
            make_rollout(world, [HEALTHY], pairs=(("XX", "westeurope"),))

    def test_negative_rounds_rejected(self, world):
        with pytest.raises(ValueError):
            make_rollout(world, [HEALTHY]).run(-1)


class TestDeterminism:
    def test_same_seed_same_history(self, world):
        a = make_rollout(world, [HEALTHY] * 4, seed=7)
        b = make_rollout(world, [HEALTHY] * 4, seed=7)
        a.run(4)
        b.run(4)
        assert a.states[("DE", "westeurope")].history == b.states[("DE", "westeurope")].history
