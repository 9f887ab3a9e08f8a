"""The MICSS baseline and the DIBS interception shim."""

import numpy as np
import pytest

from repro.core.channel import ChannelSet
from repro.netsim.host import CpuModel
from repro.netsim.rng import RngRegistry
from repro.protocol.config import SOURCE_QUEUE_LIMIT, ProtocolConfig
from repro.protocol.dibs import DibsInterceptor
from repro.protocol.micss import WINDOW, MicssNode
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.wire import HEADER_SIZE


def micss_pair(losses, symbol_size=100, seed=1, delays=None, rates=None):
    n = len(losses)
    channels = ChannelSet.from_vectors(
        risks=[0.0] * n,
        losses=losses,
        delays=delays or [0.01] * n,
        rates=rates or [100.0] * n,
    )
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, symbol_size, registry)
    node_a = MicssNode(
        network.engine, network.ports_a_out, network.ports_a_in,
        symbol_size, registry, name="micssA",
    )
    node_b = MicssNode(
        network.engine, network.ports_b_out, network.ports_b_in,
        symbol_size, registry, name="micssB",
    )
    return network, node_a, node_b


class TestMicssReliability:
    def test_lossless_delivery(self):
        network, a, b = micss_pair([0.0] * 3)
        got = {}
        b.on_deliver(lambda seq, payload, delay: got.__setitem__(seq, payload))
        payloads = [bytes([i]) * 100 for i in range(10)]
        for p in payloads:
            a.send(p)
        network.engine.run_until(50.0)
        assert [got[i] for i in range(10)] == payloads
        assert a.stats.retransmissions == 0

    def test_delivers_despite_loss_via_retransmission(self):
        network, a, b = micss_pair([0.2, 0.1, 0.3], seed=3)
        got = {}
        b.on_deliver(lambda seq, payload, delay: got.__setitem__(seq, payload))
        payloads = [bytes([i]) * 100 for i in range(20)]
        for p in payloads:
            a.send(p)
        network.engine.run_until(500.0)
        assert len(got) == 20
        assert all(got[i] == payloads[i] for i in range(20))
        assert a.stats.retransmissions > 0

    def test_source_queue_bound(self):
        network, a, b = micss_pair([0.0] * 2, seed=4)
        results = [a.send(bytes(100)) for _ in range(200)]
        assert not all(results)
        assert a.stats.source_drops > 0

    def test_source_queue_holds_source_queue_limit_symbols(self):
        network, a, b = micss_pair([0.0] * 2, seed=4)
        results = [a.send(bytes(100)) for _ in range(200)]
        # What the links took at once, then a full source queue.
        on_links = a.stats.shares_sent // 2
        assert results == [True] * (on_links + SOURCE_QUEUE_LIMIT) + [False] * (
            200 - on_links - SOURCE_QUEUE_LIMIT
        )
        assert a.stats.source_drops == 200 - on_links - SOURCE_QUEUE_LIMIT

    def test_window_bounds_symbols_in_flight(self):
        # Fast links with a 1.0 delay: no ack is back before t = 2.
        network, a, b = micss_pair([0.0] * 2, rates=[1e5] * 2, delays=[1.0] * 2)
        got = []
        b.on_deliver(lambda seq, payload, delay: got.append(seq))
        assert all(a.send(bytes(100)) for _ in range(80))
        network.engine.run_until(1.5)
        assert a.stats.shares_sent == WINDOW * 2
        network.engine.run_until(100.0)
        assert sorted(got) == list(range(80))
        assert a.stats.retransmissions == 0

    def test_rto_scales_with_channel(self):
        network, a, b = micss_pair([0.0] * 2, delays=[0.001, 1.0])
        assert a.channel_rto(1) > a.channel_rto(0)

    def test_rto_is_derived_from_each_channel(self):
        network, a, b = micss_pair([0.0] * 2, delays=[0.001, 1.0], rates=[100.0, 400.0])
        for channel in (0, 1):
            link = a.ports_out[channel].link
            share_time = (100 + HEADER_SIZE) / link.byte_rate
            assert a.channel_rto(channel) == pytest.approx(
                4.0 * (share_time + 2.0 * link.delay) + 16.0 * share_time
            )

    def test_uses_every_channel_per_symbol(self):
        network, a, b = micss_pair([0.0] * 4)
        b.on_deliver(lambda *args: None)
        for _ in range(5):
            a.send(bytes(100))
        network.engine.run_until(10.0)
        assert a.stats.shares_sent == 20  # 5 symbols x 4 channels


class TestDibs:
    def _pair(self, seed=1, losses=None, symbol_size=100, kappa=2.0, mu=3.0):
        losses = losses or [0.0] * 3
        n = len(losses)
        channels = ChannelSet.from_vectors(
            risks=[0.0] * n,
            losses=losses,
            delays=[0.01] * n,
            rates=[100.0] * n,
        )
        registry = RngRegistry(seed)
        network = PointToPointNetwork(channels, symbol_size, registry)
        config = ProtocolConfig(kappa=kappa, mu=mu, symbol_size=symbol_size)
        node_a, node_b = network.node_pair(config, registry)
        return network, node_a, node_b

    def test_datagram_roundtrip(self):
        network, a, b = self._pair()
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        messages = [b"short", b"x" * 250, b"tail"]
        for message in messages:
            tx.intercept(message)
        tx.flush()
        network.engine.run_until(20.0)
        assert received == messages

    def test_datagram_larger_than_symbol(self):
        network, a, b = self._pair()
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        big = bytes(range(256)) * 4  # 1024 bytes over 100-byte symbols
        tx.intercept(big)
        tx.flush()
        network.engine.run_until(20.0)
        assert received == [big]

    def test_multiple_datagrams_in_one_symbol(self):
        network, a, b = self._pair()
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        small = [b"a", b"bb", b"ccc"]
        for message in small:
            tx.intercept(message)
        tx.flush()
        network.engine.run_until(20.0)
        assert received == small
        assert tx.datagrams_sent == 3

    def test_counters(self):
        network, a, b = self._pair()
        rx_shim = DibsInterceptor(b)
        tx = DibsInterceptor(a)
        tx.intercept(b"hello")
        tx.flush()
        network.engine.run_until(20.0)
        assert rx_shim.datagrams_delivered == 1

    def test_refused_symbols_wait_for_sender_room(self):
        # One datagram of ~118 symbols overfills the sender's source queue;
        # the symbols it has no room for must wait, not vanish.
        network, a, b = self._pair(seed=7, symbol_size=256)
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        sent = [bytes(range(256)) * 117 + bytes(48)]
        sent += [i.to_bytes(2, "big") * 50 for i in range(400)]
        tx.intercept(sent[0])
        for i, datagram in enumerate(sent[1:]):
            network.engine.schedule_at(0.5 * (i + 1), tx.intercept, datagram)
        network.engine.schedule_at(0.5 * len(sent), tx.flush)
        network.engine.run_until(0.5 * len(sent) + 20.0)
        assert received == sent
        assert a.sender.stats.source_drops == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_lost_symbols_cost_only_their_datagrams(self, seed):
        network, a, b = self._pair(
            seed=seed, losses=[0.05] * 2, symbol_size=256, kappa=1.0, mu=1.0
        )
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        rng = np.random.default_rng(seed)
        sent = [rng.bytes(int(rng.integers(50, 450))) for _ in range(2000)]
        for i, datagram in enumerate(sent):
            network.engine.schedule_at(0.05 * i, tx.intercept, datagram)
        network.engine.schedule_at(0.05 * len(sent), tx.flush)
        network.engine.run_until(0.05 * len(sent) + 20.0)
        assert set(received) <= set(sent)
        assert len(received) >= 0.8 * len(sent)

    def test_sender_cpu_room_resumes_the_shim(self):
        # A finite sender CPU holds the source queue full while no link is
        # full, so only the sender's room notification resumes the shim.
        channels = ChannelSet.from_vectors(
            risks=[0.0] * 3, losses=[0.0] * 3, delays=[0.01] * 3, rates=[100.0] * 3
        )
        registry = RngRegistry(7)
        network = PointToPointNetwork(channels, 256, registry)
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=256)
        a, b = network.node_pair(
            config, registry, sender_cpu=CpuModel(network.engine, 20.0)
        )
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        datagram = bytes(range(250)) * 120
        tx.intercept(datagram)
        tx.flush()
        network.engine.run_until(200.0)
        assert received == [datagram]
        assert not tx._unsent

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_gap_gives_up_after_a_reassembly_timeout(self, seed):
        # A symbol lost near the end of the stream must not strand the
        # symbols after it in the stash.
        network, a, b = self._pair(
            seed=seed, losses=[0.05] * 2, symbol_size=256, kappa=1.0, mu=1.0
        )
        rx = DibsInterceptor(b)
        tx = DibsInterceptor(a)
        rng = np.random.default_rng(seed)
        sent = [rng.bytes(int(rng.integers(50, 450))) for _ in range(2000)]
        for i, datagram in enumerate(sent):
            network.engine.schedule_at(0.05 * i, tx.intercept, datagram)
        network.engine.schedule_at(0.05 * len(sent), tx.flush)
        network.engine.run_until(0.05 * len(sent) + 20.0)
        assert rx._stash == {}

    @pytest.mark.parametrize("symbol_size", [2, 65538])
    def test_symbol_size_must_fit_the_frame_offset(self, symbol_size):
        network, a, b = self._pair(symbol_size=symbol_size)
        with pytest.raises(ValueError, match="symbol size"):
            DibsInterceptor(a)

    def test_empty_datagram_rejected(self):
        network, a, b = self._pair()
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        tx.intercept(b"first")
        with pytest.raises(ValueError, match="never empty"):
            tx.intercept(b"")
        for message in (b"second", b"x" * 150, b"third"):
            tx.intercept(message)
        tx.flush()
        network.engine.run_until(20.0)
        assert received == [b"first", b"second", b"x" * 150, b"third"]
        assert tx.datagrams_sent == 4

    @pytest.mark.parametrize("size", [91, 92, 93])
    def test_padding_shorter_than_a_length_prefix(self, size):
        # A flush that leaves 1-3 bytes of padding must not swallow the
        # frame that begins the next symbol.
        network, a, b = self._pair()
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        tx.intercept(b"p" * size)
        tx.flush()
        tx.intercept(b"next")
        tx.flush()
        network.engine.run_until(20.0)
        assert received == [b"p" * size, b"next"]
