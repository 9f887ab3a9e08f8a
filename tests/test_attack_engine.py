"""The attack injector: validation, event application, link hooks, ledger."""

import numpy as np
import pytest

from repro.adversary.active import CANONICAL_ATTACKS, AttackPlan, canonical_attack
from repro.adversary.active.engine import AttackInjector
from repro.adversary.active.harness import default_channels, run_under_attack
from repro.adversary.active.plan import AttackEvent
from repro.netsim.packet import Datagram
from repro.netsim.rng import RngRegistry
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.wire import HEADER_SIZE, decode_share, encode_probe, encode_share
from repro.sharing.shamir import ShamirScheme


def make_network(seed=1):
    registry = RngRegistry(seed)
    network = PointToPointNetwork(default_channels(), 64, registry)
    return network, registry


class TestValidation:
    def test_channel_out_of_bounds(self):
        network, registry = make_network()
        plan = AttackPlan().jam(1.0, channel=9)
        with pytest.raises(ValueError, match="targets channel 9"):
            AttackInjector(network.engine, network.duplex, plan, registry)

    def test_adaptive_requires_risks(self):
        network, registry = make_network()
        plan = AttackPlan().adaptive(1.0, budget=2, period=1.0, width=1, jam_for=1.0)
        with pytest.raises(ValueError, match="needs per-channel risks"):
            AttackInjector(network.engine, network.duplex, plan, registry)

    def test_adaptive_width_bounded_by_channels(self):
        network, registry = make_network()
        plan = AttackPlan().adaptive(1.0, budget=2, period=1.0, width=9, jam_for=1.0)
        with pytest.raises(ValueError, match="width 9 exceeds"):
            AttackInjector(
                network.engine, network.duplex, plan, registry, risks=[0.1] * 5
            )

    def test_risks_length_must_match(self):
        network, registry = make_network()
        with pytest.raises(ValueError, match="3 risks for 5 channels"):
            AttackInjector(
                network.engine, network.duplex, AttackPlan(), registry, risks=[0.1] * 3
            )

    def test_arm_is_once_only(self):
        network, registry = make_network()
        injector = network.apply_attack(AttackPlan(), registry)
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()


class TestJamEvents:
    def test_jam_downs_both_directions_and_unjam_heals(self):
        network, registry = make_network()
        plan = AttackPlan().jam(1.0, channel=2).unjam(3.0, channel=2)
        injector = network.apply_attack(plan, registry)
        network.engine.run_until(2.0)
        assert not network.duplex[2].forward.up
        assert not network.duplex[2].reverse.up
        assert network.duplex[0].forward.up
        network.engine.run_until(4.0)
        assert network.duplex[2].forward.up
        assert network.duplex[2].reverse.up
        assert injector.stats.jams == 1 and injector.stats.unjams == 1

    def test_channel_none_jams_everything(self):
        network, registry = make_network()
        injector = network.apply_attack(AttackPlan().jam(1.0), registry)
        network.engine.run_until(2.0)
        assert all(not d.forward.up and not d.reverse.up for d in network.duplex)
        assert injector.stats.jams == len(network.duplex)

    def test_directional_jam_leaves_reverse_up(self):
        network, registry = make_network()
        network.apply_attack(
            AttackPlan([AttackEvent(1.0, "jam", 1, "fwd")]), registry
        )
        network.engine.run_until(2.0)
        assert not network.duplex[1].forward.up
        assert network.duplex[1].reverse.up


class TestEventLog:
    def test_log_and_summary_record_applied_events(self):
        network, registry = make_network()
        plan = AttackPlan().jam(2.0, channel=0).unjam(5.0, channel=0)
        injector = network.apply_attack(plan, registry)
        network.engine.run_until(10.0)
        assert [(t, e.action) for t, e in injector.log] == [(2.0, "jam"), (5.0, "unjam")]
        summary = injector.summary()
        assert summary["applied"] == 2
        assert summary["by_action"] == {"jam": 1, "unjam": 1}
        assert summary["first_at"] == 2.0 and summary["last_at"] == 5.0
        assert summary["stats"]["jams"] == 1

    def test_past_events_fire_immediately_on_arm(self):
        network, registry = make_network()
        network.engine.run_until(5.0)
        injector = network.apply_attack(AttackPlan().jam(1.0, channel=0), registry)
        network.engine.run_until(6.0)
        assert injector.log and injector.log[0][0] == 5.0


class TestCorruptRegime:
    """In-flight corruption: the attack tap rewrites what a link delivers."""

    @staticmethod
    def share_packet(seq, secret=b"attack at dawn!!"):
        scheme = ShamirScheme()
        share = scheme.split(secret, 2, 4, np.random.default_rng(seq))[0]
        return encode_share(seq, share, scheme.name)

    @staticmethod
    def deliver(link, engine, payloads):
        # One datagram in flight at a time, so the link's queue never drops.
        received = []
        link.set_receiver(received.append)
        for payload in payloads:
            size = 12 if payload is None else max(len(payload), 1)
            link.send(Datagram(size=size, payload=payload))
            engine.run()
        return [datagram.payload for datagram in received]

    def test_full_rate_flips_one_body_byte_of_every_share(self):
        network, registry = make_network()
        injector = network.apply_attack(AttackPlan().corrupt(0.0, rate=1.0, channel=0), registry)
        sent = [self.share_packet(seq) for seq in range(50)]
        got = self.deliver(network.duplex[0].forward, network.engine, sent)
        assert len(got) == 50
        for before, after in zip(sent, got):
            diffs = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
            assert len(after) == len(before)
            assert len(diffs) == 1 and diffs[0] >= HEADER_SIZE
        assert injector.stats.shares_corrupted == 50

    @pytest.mark.parametrize("mode", ["flip", "rewrite", "zero"])
    def test_plan_mode_reaches_the_link(self, mode):
        network, registry = make_network()
        plan = AttackPlan().corrupt(0.0, rate=1.0, mode=mode, channel=0)
        network.apply_attack(plan, registry)
        sent = self.share_packet(3)
        (got,) = self.deliver(network.duplex[0].forward, network.engine, [sent])
        header, share = decode_share(sent)
        header2, share2 = decode_share(got)
        assert (header2.seq, header2.k, header2.m, share2.index) == (
            header.seq, header.k, header.m, share.index
        )
        assert share2.data != share.data
        if mode == "zero":
            assert set(share2.data) == {0}

    def test_regime_spares_datagrams_without_payload(self):
        network, registry = make_network()
        injector = network.apply_attack(AttackPlan().corrupt(0.0, rate=1.0, channel=0), registry)
        got = self.deliver(network.duplex[0].forward, network.engine, [None, b""])
        assert got == [None, b""]
        assert injector.stats.shares_corrupted == injector.stats.control_corrupted == 0

    def test_control_packets_lose_one_byte_anywhere(self):
        network, registry = make_network()
        injector = network.apply_attack(AttackPlan().corrupt(0.0, rate=1.0, channel=0), registry)
        probe = encode_probe(0, 77)
        (got,) = self.deliver(network.duplex[0].forward, network.engine, [probe])
        assert len(got) == len(probe)
        assert sum(a != b for a, b in zip(probe, got)) == 1
        assert injector.stats.control_corrupted == 1
        assert injector.stats.shares_corrupted == 0

    def test_corruption_rate_statistical(self):
        network, registry = make_network(seed=4)
        injector = network.apply_attack(AttackPlan().corrupt(0.0, rate=0.3, channel=0), registry)
        sent = [self.share_packet(seq % 16) for seq in range(2000)]
        got = self.deliver(network.duplex[0].forward, network.engine, sent)
        tampered = sum(before != after for before, after in zip(sent, got))
        assert tampered == injector.stats.shares_corrupted
        assert tampered / 2000 == pytest.approx(0.3, abs=0.04)

    def test_end_corrupt_restores_untouched_delivery(self):
        network, registry = make_network()
        plan = AttackPlan().corrupt(0.0, rate=1.0, channel=0).end_corrupt(1.0, channel=0)
        injector = network.apply_attack(plan, registry)
        network.engine.run_until(2.0)
        sent = [self.share_packet(seq) for seq in range(10)]
        assert self.deliver(network.duplex[0].forward, network.engine, sent) == sent
        assert injector.stats.shares_corrupted == 0

    def test_regime_touches_only_its_channel_and_direction(self):
        network, registry = make_network()
        injector = network.apply_attack(AttackPlan().corrupt(0.0, rate=1.0, channel=0), registry)
        sent = [self.share_packet(seq) for seq in range(10)]
        for link in (network.duplex[0].reverse, network.duplex[1].forward):
            assert self.deliver(link, network.engine, sent) == sent
        assert injector.stats.shares_corrupted == 0


class TestHoldAndReorder:
    def test_held_packets_are_released_not_lost(self):
        plan = (
            AttackPlan()
            .hold(4.0, hold=0.5, batch=4, channel=0)
            .end_hold(20.0, channel=0)
        )
        row = run_under_attack(plan, duration=16.0, seed=5)
        stats = row["attack"]["stats"]
        assert stats["packets_held"] > 0
        assert stats["packets_released"] + stats["injected_dropped"] == stats["packets_held"]
        assert row["wrong_payloads"] == 0
        assert row["delivered"] > 0

    def test_hold_stop_flushes_remainder(self):
        # A huge batch never fills, so everything held drains at hold_stop.
        plan = (
            AttackPlan()
            .hold(4.0, hold=0.5, batch=10_000, channel=0)
            .end_hold(20.0, channel=0)
        )
        row = run_under_attack(plan, duration=16.0, seed=5)
        stats = row["attack"]["stats"]
        assert stats["packets_held"] > 0
        assert stats["packets_released"] + stats["injected_dropped"] == stats["packets_held"]


class TestCaptureRing:
    def test_capture_ring_is_bounded(self):
        network, registry = make_network()
        plan = AttackPlan().replay(1.0, rate=1.0).end_replay(2.0)
        injector = AttackInjector(
            network.engine, network.duplex, plan, registry, capture_limit=4
        )
        injector.arm()
        state = injector._states[0]
        for i in range(10):
            state._capture(Datagram(size=8, payload=bytes([i] * 8), sent_at=0.0))
        assert len(state.captured) == 4
        assert injector.stats.packets_captured == 10

    def test_capture_keeps_the_transmitted_datagram(self):
        network, registry = make_network()
        injector = AttackInjector(network.engine, network.duplex, AttackPlan(), registry)
        injector.arm()
        datagram = Datagram(size=8, payload=b"abcdefgh", sent_at=0.5, meta={"seq": 3})
        injector._states[0]._capture(datagram)
        assert injector._states[0].captured[-1] is datagram


class TestAttackStreams:
    def test_arming_wraps_and_seeds_no_stream(self):
        network, registry = make_network()
        plan = AttackPlan().corrupt(1.0, rate=0.5, channel=0).end_corrupt(2.0, channel=0)
        injector = AttackInjector(network.engine, network.duplex, plan, registry)
        injector.arm()
        assert len(injector._states) == 10
        assert not any("rng" in vars(state) for state in injector._states)
        assert not any("attack." in repr(handle) for handle in registry._streams.values())

    def test_streams_draw_only_through_random_bytes(self, monkeypatch):
        # A direct generator draw on a wrapped stream would move every
        # later value the wrapper serves, so the wrapper must be the only
        # reader: the handle's one forwarded attribute is its bit generator.
        handles = []
        stream = RngRegistry.stream

        def recording(self, name):
            handle = stream(self, name)
            if name.startswith("attack."):
                handles.append(handle)
            return handle

        monkeypatch.setattr(RngRegistry, "stream", recording)
        for name in sorted(CANONICAL_ATTACKS):
            plan = canonical_attack(name, 4.0, 64.0)
            run_under_attack(plan, duration=60.0, warmup=4.0, seed=1, auth=True)
        forwarded = [{attr for attr in vars(h) if not attr.startswith("_")} for h in handles]
        assert {"bit_generator"} in forwarded
        assert all(attrs <= {"bit_generator"} for attrs in forwarded)
