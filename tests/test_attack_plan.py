"""AttackPlan / AttackEvent: validation, builders, spec round-trips."""

import pytest

from repro.adversary.active.plan import ACTIONS, AttackEvent, AttackPlan


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AttackEvent(-1.0, "jam")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown attack action"):
            AttackEvent(1.0, "teleport")

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="unknown direction"):
            AttackEvent(1.0, "jam", direction="sideways")

    def test_negative_channel_rejected(self):
        with pytest.raises(ValueError, match="channel index"):
            AttackEvent(1.0, "jam", channel=-1)

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="does not take parameters"):
            AttackEvent(1.0, "jam", params={"rate": 0.5})

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_corrupt_rate_must_be_probability(self, rate):
        with pytest.raises(ValueError, match="corrupt rate"):
            AttackEvent(1.0, "corrupt_start", params={"rate": rate})

    def test_corrupt_mode_checked(self):
        with pytest.raises(ValueError, match="corrupt mode"):
            AttackEvent(1.0, "corrupt_start", params={"rate": 0.5, "mode": "melt"})

    def test_forge_needs_positive_rate(self):
        with pytest.raises(ValueError, match="rate"):
            AttackEvent(1.0, "forge_start", params={"rate": 0})

    def test_forge_mode_checked(self):
        with pytest.raises(ValueError, match="forge mode"):
            AttackEvent(1.0, "forge_start", params={"rate": 2.0, "mode": "psychic"})

    def test_replay_tamper_must_be_bool(self):
        with pytest.raises(ValueError, match="tamper"):
            AttackEvent(1.0, "replay_start", params={"rate": 2.0, "tamper": 1})

    def test_adaptive_params_all_required(self):
        with pytest.raises(ValueError, match="budget"):
            AttackEvent(1.0, "adaptive_start", params={"period": 1.0, "width": 1, "jam_for": 1.0})

    def test_adaptive_width_must_be_integer(self):
        with pytest.raises(ValueError, match="integer"):
            AttackEvent(
                1.0, "adaptive_start",
                params={"budget": 4, "period": 1.0, "width": 1.5, "jam_for": 1.0},
            )

    def test_target_period_positive_int(self):
        with pytest.raises(ValueError, match="period"):
            AttackEvent(1.0, "target_start", params={"period": 0, "width": 1})

    def test_stop_events_take_no_params(self):
        for action in ACTIONS:
            if action.endswith("_stop"):
                with pytest.raises(ValueError, match="does not take"):
                    AttackEvent(1.0, action, params={"rate": 0.5})


class TestBuilders:
    def test_fluent_chain_orders_by_insertion(self):
        plan = (
            AttackPlan()
            .corrupt(5.0, rate=0.5, channel=0)
            .end_corrupt(15.0, channel=0)
            .replay(2.0, rate=4.0, tamper=True)
            .end_replay(20.0)
        )
        assert len(plan) == 4
        assert [e.action for e in plan] == [
            "corrupt_start", "corrupt_stop", "replay_start", "replay_stop",
        ]
        assert [e.time for e in plan.sorted_events()] == [2.0, 5.0, 15.0, 20.0]

    def test_corrupt_defaults_forward_direction(self):
        plan = AttackPlan().corrupt(1.0, rate=0.5)
        assert plan.events[0].direction == "fwd"

    def test_replay_defaults_both_directions(self):
        plan = AttackPlan().replay(1.0, rate=2.0)
        assert plan.events[0].direction == "both"

    def test_strategic_builders_target_every_channel(self):
        plan = (
            AttackPlan()
            .adaptive(1.0, budget=8, period=4.0, width=2, jam_for=2.0)
            .end_adaptive(9.0)
            .target(1.0, period=3, width=2)
            .end_target(9.0)
        )
        assert all(event.channel is None for event in plan)

    def test_end_time(self):
        plan = AttackPlan().jam(3.0, channel=1).unjam(7.0, channel=1)
        assert plan.end_time() == 7.0
        assert AttackPlan().end_time() == 0.0


class TestSpecRoundTrip:
    def test_to_spec_from_spec_identity(self):
        plan = (
            AttackPlan()
            .corrupt(5.0, rate=0.25, mode="rewrite", channel=2)
            .end_corrupt(15.0, channel=2)
            .forge(6.0, rate=3.0, mode="blind", channel=0)
            .hold(1.0, hold=0.5, batch=8, channel=1)
            .adaptive(2.0, budget=4, period=2.0, width=1, jam_for=1.0)
        )
        rebuilt = AttackPlan.from_spec(plan.to_spec())
        assert rebuilt.to_spec() == plan.to_spec()

    def test_json_round_trip(self):
        plan = AttackPlan().replay(4.0, rate=2.0, tamper=True).end_replay(8.0)
        rebuilt = AttackPlan.from_json(plan.to_json())
        assert rebuilt.to_spec() == plan.to_spec()

    def test_from_spec_validates(self):
        with pytest.raises(ValueError, match="unknown attack action"):
            AttackPlan.from_spec([{"time": 1.0, "action": "nope"}])

    def test_spec_omits_defaults(self):
        spec = AttackPlan().jam(3.0).to_spec()
        assert spec == [{"time": 3.0, "action": "jam"}]
