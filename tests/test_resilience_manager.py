"""The resilience loop end to end: detect, quarantine, fail over, repair."""

from repro.core.planner import Requirements, plan_max_rate
from repro.netsim.faults import FaultEvent, FaultPlan
from repro.netsim.packet import Datagram
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.resilience import ChannelState, ResilienceManager
from repro.protocol.resilience.failover import schedule_min_threshold
from repro.protocol.wire import (
    CTRL_PROBE,
    CTRL_PROBE_ACK,
    encode_probe,
    encode_probe_ack,
)
from repro.workloads.setups import diverse_setup
from repro.workloads.setups import testbed_fault_plan as fault_plan_for

#: At this bound the Diverse setup plans kappa = 2 (every atom k >= 2),
#: which is the privacy floor failover must hold.
REQUIREMENTS = Requirements(max_risk=0.02)
#: The 100 Mbps channel: the plan leans on it, so losing it matters.
FAULT_CHANNEL = 4


def build(
    fault_plan=None,
    requirements=REQUIREMENTS,
    config=None,
    seed=7,
    interval=0.02,
    end=40.0,
):
    """A planned A -> B run with the resilience layer armed; traffic is
    offered every ``interval`` until ``end``."""
    channels = diverse_setup()
    registry = RngRegistry(seed)
    config = config or ProtocolConfig(symbol_size=100, share_synthetic=True)
    network = PointToPointNetwork(channels, config.symbol_size, registry)
    if fault_plan is not None:
        network.apply_faults(fault_plan)
    plan = plan_max_rate(channels, requirements)
    node_a, node_b = network.node_pair(config, registry, schedule=plan.schedule)
    manager = ResilienceManager(
        network, node_a, node_b, registry, requirements=requirements
    )
    engine = network.engine

    def offer():
        node_a.send(None if config.share_synthetic else payload_rng.bytes(config.symbol_size))
        if engine.now + interval < end:
            engine.schedule(interval, offer)

    payload_rng = registry.stream("test.payload")
    engine.schedule_at(0.0, offer)
    return network, node_a, node_b, manager


def outage_plan(start=10.0, stop=25.0, channel=FAULT_CHANNEL):
    return FaultPlan([
        FaultEvent(start, "partition", channel),
        FaultEvent(stop, "heal", channel),
    ])


class TestOutageLifecycle:
    def test_quarantine_failover_probe_reinstate(self):
        network, node_a, _, manager = build(fault_plan=outage_plan())
        network.engine.run_until(40.0)
        stats = manager.stats
        assert stats.quarantines >= 1
        assert stats.failovers >= 1
        assert stats.probes_sent >= 1
        assert stats.probe_acks_received >= 1
        assert stats.reinstatements >= 1
        assert stats.control_decode_errors == 0
        # The cycle ends healthy, on the original plan.
        assert all(g.state is ChannelState.HEALTHY for g in manager.guards)
        modes = [record.mode for record in manager.failover.records]
        assert modes[0] == "replanned"
        assert modes[-1] == "restored"
        assert node_a.sampler is manager.failover.base_sampler
        assert node_a.sender.selector.excluded == frozenset()

    def test_transitions_are_time_ordered_with_reasons(self):
        network, _, _, manager = build(fault_plan=outage_plan())
        network.engine.run_until(40.0)
        transitions = manager.transitions()
        assert transitions, "outage must produce transitions"
        times = [t.time for t in transitions]
        assert times == sorted(times)
        assert all(t.reason for t in transitions)
        assert {t.channel for t in transitions} == {FAULT_CHANNEL}

    def test_summary_is_json_safe(self):
        import json

        network, _, _, manager = build(fault_plan=outage_plan())
        network.engine.run_until(40.0)
        text = json.dumps(manager.summary(), sort_keys=True)
        assert "replanned" in text

    def test_stop_cancels_reviews(self):
        network, _, _, manager = build(fault_plan=outage_plan())
        network.engine.run_until(5.0)
        manager.stop()
        before = manager.stats.quarantines
        network.engine.run_until(20.0)
        assert manager.stats.quarantines == before


class TestPrivacyFloor:
    def test_no_schedule_below_kappa_floor_during_quarantine(self):
        """ISSUE acceptance: every (k, m) the sender samples while the
        fault channel is quarantined keeps k at or above the plan's
        privacy floor."""
        network, node_a, _, manager = build(fault_plan=outage_plan())
        engine = network.engine
        engine.run_until(16.0)
        assert FAULT_CHANNEL in manager.quarantined
        floor = int(manager.failover.kappa_floor)
        assert floor >= 2
        before = dict(node_a.sender.schedule_picks)
        engine.run_until(24.0)  # still inside the outage window
        assert FAULT_CHANNEL in manager.quarantined
        picked = {
            key: count - before.get(key, 0)
            for key, count in node_a.sender.schedule_picks.items()
            if count - before.get(key, 0) > 0
        }
        assert picked, "sender must keep sampling on the survivor plan"
        assert all(k >= floor for (_flow, k, _m) in picked)

    def test_failover_schedule_never_weakens_threshold(self):
        network, node_a, _, manager = build(fault_plan=outage_plan())
        network.engine.run_until(16.0)
        floor = int(manager.failover.kappa_floor)
        assert schedule_min_threshold(node_a.sampler.schedule) >= floor


class TestDegradedMode:
    def test_full_partition_pauses_admission(self):
        plan = FaultPlan([FaultEvent(10.0, "partition", None)])  # all channels
        network, node_a, node_b, manager = build(fault_plan=plan, end=25.0)
        network.engine.run_until(25.0)
        assert manager.failover.degraded
        assert node_a.sender.admission_paused
        assert node_a.sender.stats.admission_paused_drops > 0
        last = manager.failover.records[-1]
        assert last.mode == "degraded"
        assert last.error is not None
        # Leak nothing: no shares go out while degraded.
        delivered_at_pause = node_b.receiver.stats.symbols_delivered
        network.engine.run_until(30.0)
        assert node_b.receiver.stats.symbols_delivered == delivered_at_pause


class TestRepair:
    def test_burst_loss_triggers_nack_and_recovery(self):
        plan = fault_plan_for("burst", 100.0, 250.0, channel=FAULT_CHANNEL)
        network, _, node_b, manager = build(fault_plan=plan, end=35.0)
        network.engine.run_until(35.0)
        stats = manager.stats
        assert stats.nacks_received >= 1
        assert stats.repair_shares_sent >= 1
        assert node_b.receiver.stats.repair_recovered >= 1
        assert manager.repair_buffer.unknown_nacks == 0

    def test_repaired_symbols_reconstruct_real_payloads(self):
        """Repair resends *original* shares; with real share material the
        reconstructed payloads must match what was offered."""
        plan = fault_plan_for("burst", 100.0, 250.0, channel=FAULT_CHANNEL)
        config = ProtocolConfig(symbol_size=64, share_synthetic=False)
        network, node_a, node_b, manager = build(
            fault_plan=plan, config=config, interval=0.05, end=35.0
        )
        offered = {}
        original_send = node_a.sender.offer

        def tracked_offer(payload):
            seq = node_a.sender._seqs.get(0, 0)
            if original_send(payload):
                offered[seq] = payload
        node_a.send = tracked_offer  # wrap to map seq -> payload

        delivered = {}
        node_b.on_deliver(lambda seq, payload, delay: delivered.setdefault(seq, payload))
        network.engine.run_until(35.0)
        assert node_b.receiver.stats.repair_recovered >= 1
        assert delivered, "nothing delivered"
        for seq, payload in delivered.items():
            assert payload == offered[seq], f"symbol {seq} corrupted"


class TestControlFrames:
    def test_out_of_range_channel_is_counted_and_dropped(self):
        """A tampered channel byte must not index past the channel lists."""
        network, _, _, manager = build(end=1.0)
        channel = len(manager.guards)
        duplex = network.duplex[0]
        for link, kind, payload in (
            (duplex.forward, CTRL_PROBE, encode_probe(channel, 0)),
            (duplex.reverse, CTRL_PROBE_ACK, encode_probe_ack(channel, 0)),
        ):
            before = manager.stats.control_decode_errors
            assert link.inject(Datagram(
                size=len(payload), payload=payload,
                meta={"ctrl": kind, "channel": channel},
            ))
            assert manager.stats.control_decode_errors == before + 1
        assert manager.stats.probe_acks_sent == 0
        assert manager.stats.probe_acks_received == 0
        assert manager.stats.reinstatements == 0


class TestNoFaults:
    def test_quiet_run_never_quarantines(self):
        network, node_a, _, manager = build(fault_plan=None, end=20.0)
        network.engine.run_until(20.0)
        assert manager.stats.quarantines == 0
        assert manager.failover.records == []
        assert all(g.state is ChannelState.HEALTHY for g in manager.guards)
        assert node_a.sampler is manager.failover.base_sampler
