"""The timeline chassis: the checks fault and attack plans share.

Every rule is exercised for both kinds -- :class:`FaultEvent` /
:class:`FaultPlan` and :class:`AttackEvent` / :class:`AttackPlan` -- so a
plan read from a file fails before the run starts, with a ``ValueError``,
never mid-run.
"""

from types import SimpleNamespace

import pytest

from repro.adversary.active.plan import AttackEvent, AttackPlan
from repro.cli import main
from repro.netsim.faults import FaultEvent, FaultInjector, FaultPlan
from repro.obs import Observability
from repro.obs.instrument import instrument_timeline

#: (event class, plan class, an action without parameters) per kind.
KINDS = {
    "fault": (FaultEvent, FaultPlan, "link_down"),
    "attack": (AttackEvent, AttackPlan, "jam"),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


class TestEventShape:
    @pytest.mark.parametrize("time", [float("nan"), float("inf"), "1", True, None])
    def test_time_must_be_a_finite_number(self, kind, time):
        event, _plan, action = kind
        with pytest.raises(ValueError, match="time must be a finite number"):
            event(time, action)

    @pytest.mark.parametrize("channel", [0.5, 1.0, True, "1"])
    def test_channel_must_be_an_int(self, kind, channel):
        event, _plan, action = kind
        with pytest.raises(ValueError, match="channel index must be an integer"):
            event(1.0, action, channel=channel)

    def test_unhashable_action_rejected(self, kind):
        event, _plan, _action = kind
        with pytest.raises(ValueError, match="action"):
            event(1.0, ["jam"])


class TestNumericParams:
    @pytest.mark.parametrize(
        "action, params",
        [
            ("set_loss", {"loss": True}),
            ("set_loss", {"loss": "0.1"}),
            ("set_delay", {"delay": float("nan")}),
            ("set_rate", {"scale": float("inf")}),
            ("burst_start", {"p_bad": 0.1, "p_good": None}),
        ],
    )
    def test_fault_params(self, action, params):
        with pytest.raises(ValueError, match="must be a finite number"):
            FaultEvent(1.0, action, params=params)

    @pytest.mark.parametrize(
        "action, params",
        [
            ("corrupt_start", {"rate": True}),
            ("forge_start", {"rate": "2"}),
            ("replay_start", {"rate": float("inf")}),
            ("hold_start", {"hold": float("nan")}),
            ("target_start", {"period": 3, "width": False}),
        ],
    )
    def test_attack_params(self, action, params):
        with pytest.raises(ValueError, match="must be a finite number"):
            AttackEvent(1.0, action, params=params)

    def test_attack_text_params_keep_their_own_checks(self):
        event = AttackEvent(1.0, "corrupt_start", params={"rate": 1, "mode": "zero"})
        assert event.params["mode"] == "zero"
        with pytest.raises(ValueError, match="tamper must be a bool"):
            AttackEvent(1.0, "replay_start", params={"rate": 2.0, "tamper": "yes"})


class TestSpecShape:
    def test_spec_must_be_a_list(self, kind):
        _event, plan, action = kind
        with pytest.raises(ValueError, match="must be a list of event objects"):
            plan.from_spec({"time": 1.0, "action": action})

    def test_entry_must_be_an_object(self, kind):
        _event, plan, _action = kind
        with pytest.raises(ValueError, match="entry 0 must be an object"):
            plan.from_spec([5])

    @pytest.mark.parametrize("missing", ["time", "action"])
    def test_entry_needs_time_and_action(self, kind, missing):
        _event, plan, action = kind
        entry = {"time": 1.0, "action": action}
        del entry[missing]
        with pytest.raises(ValueError, match=f"entry 0 is missing '{missing}'"):
            plan.from_spec([entry])

    def test_bad_entry_is_named_by_index(self, kind):
        _event, plan, action = kind
        spec = [{"time": 1.0, "action": action}, {"time": 2.0, "action": action, "channel": 0.5}]
        with pytest.raises(ValueError, match="entry 1: channel index must be an integer"):
            plan.from_spec(spec)

    def test_json_nan_time_rejected(self, kind):
        _event, plan, action = kind
        with pytest.raises(ValueError, match="entry 0: .*finite number"):
            plan.from_json(f'[{{"time": NaN, "action": "{action}"}}]')


class TestIgnoredFieldsRejected:
    @pytest.mark.parametrize("action", ["partition", "heal"])
    @pytest.mark.parametrize("direction", ["fwd", "rev"])
    def test_partition_and_heal_act_on_both_directions(self, action, direction):
        with pytest.raises(ValueError, match="acts on both directions"):
            FaultEvent(1.0, action, direction=direction)
        with pytest.raises(ValueError, match="acts on both directions"):
            FaultPlan.from_spec([{"time": 1.0, "action": action, "direction": direction}])

    @pytest.mark.parametrize(
        "action, params",
        [
            ("adaptive_start", {"budget": 2, "period": 1.0, "width": 1, "jam_for": 1.0}),
            ("adaptive_stop", {}),
            ("target_start", {"period": 3, "width": 2}),
            ("target_stop", {}),
        ],
    )
    def test_strategic_attacks_take_no_channel(self, action, params):
        with pytest.raises(ValueError, match="does not take a channel"):
            AttackEvent(1.0, action, channel=0, params=params)
        assert AttackEvent(1.0, action, params=params).channel is None


class TestInjector:
    def test_targets_in_channel_then_forward_reverse_order(self):
        duplex = [SimpleNamespace(forward=f"f{i}", reverse=f"r{i}") for i in range(3)]
        injector = FaultInjector(None, duplex, FaultPlan())

        def targets(channel, direction):
            event = FaultEvent(0.0, "link_down", channel, direction)
            return injector.targets(event, injector.links)

        assert targets(None, "both") == ["f0", "r0", "f1", "r1", "f2", "r2"]
        assert targets(None, "fwd") == ["f0", "f1", "f2"]
        assert targets(1, "rev") == ["r1"]

    def test_disabled_obs_leaves_the_injector_alone(self):
        injector = FaultInjector(None, [], FaultPlan())
        instrument_timeline(Observability.create(tracing=False), injector)
        assert injector.tracer is None


class TestCliPlanFiles:
    """``repro simulate --faults FILE.json`` rejects bad files up front."""

    CHANNELS = ["0.1,0.0,0.01,100", "0.2,0.01,0.02,100", "0.3,0.0,0.01,50"]

    @pytest.mark.parametrize(
        "text",
        [
            '[{"time": 1.0, "action": "link_down", "channel": 0.5}]',
            '[{"time": "1", "action": "link_down"}]',
            "[5]",
            '[{"action": "link_down"}]',
            '[{"time": NaN, "action": "link_down"}]',
            '[{"time": 1.0, "action": "partition", "direction": "fwd"}]',
            '[{"time": 1.0, "action": "link_down", "channel": 3}]',
        ],
    )
    def test_bad_plan_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "plan.json"
        path.write_text(text)
        argv = ["simulate", "--kappa", "2", "--mu", "3"]
        for channel in self.CHANNELS:
            argv += ["--channel", channel]
        argv += ["--duration", "2", "--warmup", "1", "--faults", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
