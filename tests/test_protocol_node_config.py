"""ProtocolConfig validation, RemicssNode wiring, network construction."""

import numpy as np
import pytest

from repro.core.channel import ChannelSet
from repro.core.schedule import ShareSchedule
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.scheduler import DynamicParameterSampler, ExplicitScheduler
from repro.protocol.wire import FLOW_HEADER_SIZE, HEADER_SIZE, decode_share
from repro.sharing.xor import XorScheme


class TestProtocolConfig:
    def test_defaults(self):
        config = ProtocolConfig()
        assert config.kappa == 1.0
        assert config.mu == 1.0
        assert config.symbol_size == 1250
        assert config.scheme.name == "shamir-gf256"

    def test_parameter_ordering_enforced(self):
        with pytest.raises(ValueError):
            ProtocolConfig(kappa=3.0, mu=2.0)
        with pytest.raises(ValueError):
            ProtocolConfig(kappa=0.5, mu=1.0)

    def test_other_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(symbol_size=0)
        with pytest.raises(ValueError):
            ProtocolConfig(reassembly_timeout=0.0)

    def test_nan_reassembly_timeout_rejected(self):
        with pytest.raises(ValueError, match="reassembly_timeout"):
            ProtocolConfig(reassembly_timeout=float("nan"))

    def test_custom_scheme(self):
        config = ProtocolConfig(kappa=3.0, mu=3.0, scheme=XorScheme())
        assert config.scheme.supports(3, 3)


@pytest.fixture
def small_network():
    channels = ChannelSet.from_vectors(
        risks=[0.0] * 3,
        losses=[0.0] * 3,
        delays=[0.01] * 3,
        rates=[100.0] * 3,
    )
    registry = RngRegistry(5)
    return PointToPointNetwork(channels, 100, registry), registry


class TestPointToPointNetwork:
    def test_one_duplex_per_channel(self, small_network):
        network, _ = small_network
        assert len(network.duplex) == 3
        assert len(network.ports_a_out) == 3
        assert len(network.ports_b_out) == 3

    def test_byte_rate_is_rate_times_symbol(self, small_network):
        network, _ = small_network
        assert network.duplex[0].forward.byte_rate == pytest.approx(100.0 * 100)

    def test_port_indices_align_with_channels(self, small_network):
        network, _ = small_network
        assert [p.index for p in network.ports_a_out] == [0, 1, 2]
        assert [p.index for p in network.ports_b_out] == [0, 1, 2]


class TestRemicssNode:
    def test_dynamic_sampler_by_default(self, small_network):
        network, registry = small_network
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=100)
        node_a, _ = network.node_pair(config, registry)
        assert isinstance(node_a.sampler, DynamicParameterSampler)

    def test_explicit_scheduler_when_schedule_given(self, small_network):
        network, registry = small_network
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=100)
        schedule = ShareSchedule.singleton(network.channels, 2, [0, 1, 2])
        node_a, _ = network.node_pair(config, registry, schedule=schedule)
        assert isinstance(node_a.sampler, ExplicitScheduler)

    def test_multiple_deliver_callbacks(self, small_network):
        network, registry = small_network
        config = ProtocolConfig(kappa=1.0, mu=1.0, symbol_size=100)
        node_a, node_b = network.node_pair(config, registry)
        first, second = [], []
        node_b.on_deliver(lambda seq, payload, delay: first.append(seq))
        node_b.on_deliver(lambda seq, payload, delay: second.append(seq))
        node_a.send(bytes(100))
        network.engine.run_until(1.0)
        assert first == [0]
        assert second == [0]

    def test_bidirectional_traffic(self, small_network):
        network, registry = small_network
        config = ProtocolConfig(kappa=2.0, mu=2.0, symbol_size=100)
        node_a, node_b = network.node_pair(config, registry)
        to_b, to_a = [], []
        node_b.on_deliver(lambda seq, payload, delay: to_b.append(payload))
        node_a.on_deliver(lambda seq, payload, delay: to_a.append(payload))
        node_a.send(b"a" * 100)
        node_b.send(b"b" * 100)
        network.engine.run_until(2.0)
        assert to_b == [b"a" * 100]
        assert to_a == [b"b" * 100]

    def test_independent_rng_streams_for_nodes(self, small_network):
        network, registry = small_network
        config = ProtocolConfig(kappa=1.0, mu=1.0, symbol_size=100)
        node_a, node_b = network.node_pair(config, registry)
        assert node_a.sender.rng is not node_b.sender.rng

    def test_flow_zero_and_nonzero_flow_share_one_sender(self, small_network):
        """Flow 0 (``send``) and flow 3 (``offer``) interleave on one sender:
        each flow numbers its symbols from 0, frames keep their own wire
        version, and the receiver's one hook delivers every (flow, seq)."""
        network, registry = small_network
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=100)
        node_a, node_b = network.node_pair(config, registry)
        frames = []
        for port in network.ports_a_out:
            port.link.watch_transmit(lambda dg: frames.append(dg.payload))
        delivered = {}
        node_b.receiver.on_deliver = (
            lambda flow, seq, payload, delay: delivered.__setitem__((flow, seq), payload)
        )
        count = 5
        offered = {}
        for i in range(count):
            offered[(0, i)] = bytes([i]) * 100
            offered[(3, i)] = bytes([100 + i]) * 100
            network.engine.schedule_at(0.1 * i, node_a.send, offered[(0, i)])
            network.engine.schedule_at(
                0.1 * i + 0.05, node_a.sender.offer, offered[(3, i)], 3
            )
        network.engine.run_until(5.0)

        seqs = {0: [], 3: []}
        for frame in frames:
            header, share = decode_share(frame)
            seqs[header.flow].append(header.seq)
            version = frame[2]
            header_size = len(frame) - len(share.data)
            if header.flow == 0:
                assert (version, header_size) == (1, HEADER_SIZE)
            else:
                assert (version, header_size) == (2, FLOW_HEADER_SIZE)
        for flow in (0, 3):
            assert sorted(set(seqs[flow])) == list(range(count))
        assert delivered == offered


class TestLinkJitter:
    def test_jitter_varies_delivery_times(self):
        from repro.netsim.engine import Engine
        from repro.netsim.link import Link
        from repro.netsim.packet import Datagram

        engine = Engine()
        link = Link(
            engine, byte_rate=1e6, loss=0.0, delay=1.0,
            rng=np.random.default_rng(0), queue_limit=1000,
        )
        link.set_jitter(0.5)
        arrivals = []
        link.set_receiver(lambda dg: arrivals.append(engine.now))
        for _ in range(200):
            link.send(Datagram(size=1))
        engine.run()
        assert max(arrivals) - min(arrivals) > 0.5
        assert all(0.4 < a < 1.7 for a in np.array(arrivals) - np.arange(len(arrivals)) * 1e-6)

    def test_zero_jitter_is_deterministic(self):
        from repro.netsim.engine import Engine
        from repro.netsim.link import Link
        from repro.netsim.packet import Datagram

        engine = Engine()
        link = Link(
            engine, byte_rate=100.0, loss=0.0, delay=1.0,
            rng=np.random.default_rng(0), queue_limit=10,
        )
        arrivals = []
        link.set_receiver(lambda dg: arrivals.append(engine.now))
        link.send(Datagram(size=100))
        engine.run()
        assert arrivals == [pytest.approx(2.0)]

    def test_negative_jitter_rejected(self):
        from repro.netsim.engine import Engine
        from repro.netsim.link import Link

        link = Link(
            Engine(), byte_rate=1.0, loss=0.0, delay=1.0, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            link.set_jitter(-0.1)

    def test_protocol_handles_jitter_reordering(self):
        """Jitter reorders shares; the reassembly buffer still reconstructs."""
        from repro.netsim.engine import Engine
        from repro.netsim.link import DuplexChannel
        from repro.netsim.ports import ChannelPort
        from repro.protocol.remicss import RemicssNode

        engine = Engine()
        registry = RngRegistry(8)
        duplexes = [
            DuplexChannel(
                engine, byte_rate=100.0 * 100, loss=0.0, delay=0.5,
                forward_rng=registry.stream(f"f{i}"),
                reverse_rng=registry.stream(f"r{i}"),
                name=f"j{i}",
            )
            for i in range(3)
        ]
        for duplex in duplexes:
            for link in duplex.links:
                link.set_jitter(0.4)
        ports_out = [ChannelPort(i, d.forward) for i, d in enumerate(duplexes)]
        ports_in = [ChannelPort(i, d.reverse) for i, d in enumerate(duplexes)]
        config = ProtocolConfig(kappa=3.0, mu=3.0, symbol_size=100,
                                reassembly_timeout=20.0)
        node_a = RemicssNode(engine, ports_out, ports_in, config, registry, name="a")
        # Receiver-only node on the far side of the forward links.
        delivered = {}
        node_b = RemicssNode(engine, ports_in, ports_out, config, registry, name="b")
        node_b.on_deliver(lambda seq, payload, delay: delivered.__setitem__(seq, payload))
        payloads = [bytes([i]) * 100 for i in range(30)]
        for i, payload in enumerate(payloads):
            engine.schedule_at(i * 0.05, node_a.send, payload)
        engine.run_until(30.0)
        assert len(delivered) == 30
        assert all(delivered[i] == payloads[i] for i in range(30))
