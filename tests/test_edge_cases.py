"""Edge-case and failure-injection tests across modules."""

import pytest

from repro.core.channel import ChannelSet
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork


class TestSingleChannelDegenerate:
    """n = 1: the model degenerates to a single path, and must still hold."""

    @pytest.fixture
    def single(self):
        return ChannelSet.from_vectors([0.3], [0.1], [0.5], [10.0])

    def test_rate_theorems(self, single):
        from repro.core.rate import (
            full_utilization_mu_limit,
            max_rate,
            optimal_rate,
        )

        assert max_rate(single) == 10.0
        assert optimal_rate(single, 1.0) == 10.0
        assert full_utilization_mu_limit(single) == 1.0

    def test_extremes(self, single):
        from repro.core.optimal import max_privacy_risk, min_delay, min_loss

        assert max_privacy_risk(single)[0] == pytest.approx(0.3)
        assert min_loss(single)[0] == pytest.approx(0.1)
        assert min_delay(single)[0] == pytest.approx(0.5)

    def test_lp(self, single):
        from repro.core.program import Objective, optimal_schedule

        schedule = optimal_schedule(single, Objective.PRIVACY, 1.0, 1.0,
                                    at_max_rate=True)
        assert schedule.kappa == 1.0
        assert schedule.max_symbol_rate() == pytest.approx(10.0)

    def test_protocol_end_to_end(self, single):
        registry = RngRegistry(1)
        network = PointToPointNetwork(single, 100, registry)
        config = ProtocolConfig(kappa=1.0, mu=1.0, symbol_size=100,
                                reassembly_timeout=10.0)
        node_a, node_b = network.node_pair(config, registry)
        got = []
        node_b.on_deliver(lambda s, p, d: got.append(p))
        for i in range(20):
            network.engine.schedule_at(i * 0.5, node_a.send, bytes([i]) * 100)
        network.engine.run_until(30.0)
        # 10% loss channel: most but not necessarily all arrive.
        assert 14 <= len(got) <= 20


class TestMicssAckLoss:
    def test_lost_acks_cause_spurious_retransmissions_not_loss(self):
        """ACKs crossing a lossy reverse path: duplicates, not data loss."""
        from repro.protocol.micss import MicssNode

        channels = ChannelSet.from_vectors(
            risks=[0.0] * 2, losses=[0.0, 0.0], delays=[0.05] * 2, rates=[50.0] * 2
        )
        registry = RngRegistry(2)
        network = PointToPointNetwork(channels, 100, registry)
        # Make the REVERSE direction lossy: data arrives, ACKs die.
        for duplex in network.duplex:
            duplex.reverse.loss = 0.4
        node_a = MicssNode(network.engine, network.ports_a_out, network.ports_a_in,
                           100, registry, name="a")
        node_b = MicssNode(network.engine, network.ports_b_out, network.ports_b_in,
                           100, registry, name="b")
        got = {}
        node_b.on_deliver(lambda s, p, d: got.__setitem__(s, p))
        sent = []
        for i in range(30):
            payload = bytes([i]) * 100
            network.engine.schedule_at(i * 0.2, node_a.send, payload)
            sent.append(payload)
        network.engine.run_until(100.0)
        assert len(got) == 30
        assert all(got[i] == sent[i] for i in range(30))
        assert node_a.stats.retransmissions > 0


class TestDibsResync:
    def test_gap_triggers_resync_and_recovery(self):
        """A hole in the symbol stream flushes state but later data flows."""
        from repro.protocol.dibs import DibsInterceptor

        channels = ChannelSet.from_vectors(
            risks=[0.0], losses=[0.0], delays=[0.01], rates=[1000.0]
        )
        registry = RngRegistry(3)
        network = PointToPointNetwork(channels, 64, registry)
        config = ProtocolConfig(kappa=1.0, mu=1.0, symbol_size=64)
        node_a, node_b = network.node_pair(config, registry)
        received = []
        rx_shim = DibsInterceptor(node_b, on_datagram=received.append)
        # Bypass the sender shim: inject symbols with a gap directly by
        # feeding the rx shim's symbol hook.
        # A symbol whose first frame starts at body offset 0: one 5-byte
        # datagram, then padding.
        good = (b"\x00\x00" + b"\x00\x00\x00\x05hello").ljust(64, b"\0")
        rx_shim._on_symbol(0, good, 0.0)
        assert received == [b"hello"]
        # Deliver far-future symbols only: eventually triggers resync.
        for seq in range(2, 80):
            rx_shim._on_symbol(seq, good, 0.0)
        assert rx_shim.datagrams_corrupted >= 1
        assert len(received) > 1  # post-resync data decoded again


class TestRngIndependenceAcrossComponents:
    def test_adding_probe_does_not_change_results(self):
        """Attaching an adversary must not perturb the protocol's RNG."""
        from repro.adversary.eavesdropper import Eavesdropper
        from repro.sharing.shamir import ShamirScheme

        def run(with_adversary):
            channels = ChannelSet.from_vectors(
                risks=[0.5] * 2, losses=[0.2] * 2, delays=[0.01] * 2, rates=[100.0] * 2
            )
            registry = RngRegistry(11)
            network = PointToPointNetwork(channels, 64, registry)
            config = ProtocolConfig(kappa=1.0, mu=2.0, symbol_size=64,
                                    reassembly_timeout=5.0)
            node_a, node_b = network.node_pair(config, registry)
            if with_adversary:
                Eavesdropper(
                    [d.forward for d in network.duplex], [0.5, 0.5],
                    registry.stream("adv"), scheme=ShamirScheme(),
                )
            got = []
            node_b.on_deliver(lambda s, p, d: got.append(s))
            payload_rng = registry.stream("p")
            for i in range(200):
                network.engine.schedule_at(i * 0.05, lambda: node_a.send(payload_rng.bytes(64)))
            network.engine.run_until(20.0)
            return got

        assert run(False) == run(True)


class TestZeroAndExtremeParameters:
    def test_zero_delay_zero_loss_channels(self):
        channels = ChannelSet.from_vectors([0.0], [0.0], [0.0], [1.0])
        from repro.core.properties import subset_delay, subset_loss, subset_risk

        assert subset_risk(channels, 1, [0]) == 0.0
        assert subset_loss(channels, 1, [0]) == 0.0
        assert subset_delay(channels, 1, [0]) == 0.0

    def test_certain_risk_channels(self):
        channels = ChannelSet.from_vectors([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        from repro.core.properties import subset_risk

        assert subset_risk(channels, 2, [0, 1]) == pytest.approx(1.0)

    def test_near_one_loss(self):
        channels = ChannelSet.from_vectors([0.0], [0.999], [0.0], [1.0])
        from repro.core.properties import subset_delay, subset_loss

        assert subset_loss(channels, 1, [0]) == pytest.approx(0.999)
        # Conditional delay is still finite and well-defined.
        assert subset_delay(channels, 1, [0]) == 0.0

    def test_huge_rate_spread(self):
        from repro.core.rate import optimal_rate, optimal_rate_bruteforce

        channels = ChannelSet.from_vectors(
            [0.0] * 3, [0.0] * 3, [0.0] * 3, [1e-3, 1.0, 1e6]
        )
        for mu in (1.0, 1.5, 2.0, 2.5, 3.0):
            assert optimal_rate(channels, mu) == pytest.approx(
                optimal_rate_bruteforce(channels, mu)
            )
