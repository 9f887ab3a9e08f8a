"""The send path: queueing, readiness waiting, dynamic/explicit selection."""

import numpy as np
import pytest

from repro.core.schedule import ShareSchedule
from repro.netsim.engine import Engine
from repro.netsim.host import CpuModel
from repro.netsim.link import Link
from repro.netsim.ports import ChannelPort
from repro.protocol.config import SOURCE_QUEUE_LIMIT, ProtocolConfig
from repro.protocol.scheduler import DynamicParameterSampler, ExplicitScheduler
from repro.protocol.sender import ShareSender
from repro.protocol.wire import HEADER_SIZE, decode_share


def make_ports(engine, n=3, byte_rate=1000.0, queue_limit=4):
    ports = []
    for i in range(n):
        link = Link(
            engine, byte_rate=byte_rate, loss=0.0, delay=0.0,
            rng=np.random.default_rng(100 + i), queue_limit=queue_limit,
        )
        ports.append(ChannelPort(i, link))
    return ports


def make_sender(engine, ports, kappa=1.0, mu=1.0, config=None, sampler=None, cpu=None):
    config = config or ProtocolConfig(kappa=kappa, mu=mu, symbol_size=100)
    sampler = sampler or DynamicParameterSampler(
        config.kappa, config.mu, np.random.default_rng(0)
    )
    return ShareSender(engine, ports, sampler, config, np.random.default_rng(1), cpu=cpu)


class TestBasicSending:
    def test_one_share_per_chosen_channel(self):
        engine = Engine()
        ports = make_ports(engine)
        received = []
        for port in ports:
            port.on_receive(lambda dg, p=port: received.append((p.index, dg)))
        sender = make_sender(engine, ports, kappa=2.0, mu=3.0)
        payload = bytes(100)
        assert sender.offer(payload)
        engine.run()
        assert len(received) == 3
        assert len({index for index, _ in received}) == 3
        assert sender.stats.shares_sent == 3
        assert sender.stats.symbols_sent == 1

    def test_share_packets_decode(self):
        engine = Engine()
        ports = make_ports(engine)
        packets = []
        ports[0].on_receive(lambda dg: packets.append(dg))
        sender = make_sender(engine, ports, kappa=3.0, mu=3.0)
        sender.offer(bytes(100))
        engine.run()
        header, share = decode_share(packets[0].payload)
        assert header.k == 3
        assert header.m == 3
        assert len(share.data) == 100
        assert packets[0].size == 100 + HEADER_SIZE

    def test_payload_size_enforced(self):
        engine = Engine()
        sender = make_sender(engine, make_ports(engine))
        with pytest.raises(ValueError):
            sender.offer(bytes(99))

    def test_synthetic_requires_flag(self):
        engine = Engine()
        sender = make_sender(engine, make_ports(engine))
        with pytest.raises(ValueError):
            sender.offer(None)

    def test_rejected_offers_are_not_counted(self):
        engine = Engine()
        sender = make_sender(engine, make_ports(engine))
        with pytest.raises(ValueError):
            sender.offer(bytes(99))
        with pytest.raises(ValueError):
            sender.offer(None)
        assert sender.stats.symbols_offered == 0

    def test_synthetic_datagrams_have_size_only(self):
        engine = Engine()
        ports = make_ports(engine)
        got = []
        ports[0].on_receive(lambda dg: got.append(dg))
        config = ProtocolConfig(kappa=1.0, mu=3.0, symbol_size=100, share_synthetic=True)
        sender = make_sender(engine, ports, config=config)
        sender.offer(None)
        engine.run()
        assert got[0].payload is None
        assert got[0].size == 100 + HEADER_SIZE
        assert got[0].meta["m"] == 3


class TestBackpressure:
    def test_source_queue_overflow_drops(self):
        engine = Engine()
        ports = make_ports(engine, byte_rate=10.0, queue_limit=1)
        config = ProtocolConfig(kappa=1.0, mu=3.0, symbol_size=100)
        sender = make_sender(engine, ports, config=config)
        results = [sender.offer(bytes(100)) for _ in range(SOURCE_QUEUE_LIMIT + 10)]
        assert not all(results)
        assert sender.backlog == SOURCE_QUEUE_LIMIT
        assert sender.stats.source_drops == results.count(False)

    def test_waits_for_enough_writable_channels(self):
        engine = Engine()
        # Slow channels with tiny queues: a 3-channel symbol must wait.
        ports = make_ports(engine, n=3, byte_rate=100.0, queue_limit=1)
        # Saturate channel 2's queue.
        from repro.netsim.packet import Datagram

        ports[2].send(Datagram(size=1000))
        ports[2].send(Datagram(size=1000))
        assert not ports[2].writable()
        sender = make_sender(engine, ports, kappa=3.0, mu=3.0)
        sender.offer(bytes(100))
        # Cannot send yet: only two channels writable.
        assert sender.stats.symbols_sent == 0
        assert sender.backlog == 1
        engine.run()  # queue drains -> writable notification -> pump
        assert sender.stats.symbols_sent == 1

    def test_progress_resumes_after_drain(self):
        engine = Engine()
        ports = make_ports(engine, n=2, byte_rate=100.0, queue_limit=2)
        delivered = []
        for port in ports:
            port.on_receive(lambda dg: delivered.append(1))
        sender = make_sender(engine, ports, kappa=2.0, mu=2.0)
        for _ in range(10):
            sender.offer(bytes(100))
        engine.run()
        assert sender.stats.symbols_sent == 10
        assert len(delivered) == 20


class TestExplicitSchedule:
    def test_uses_exact_subset(self, rng):
        engine = Engine()
        ports = make_ports(engine, n=3)
        per_port = {0: 0, 1: 0, 2: 0}
        for port in ports:
            port.on_receive(lambda dg, p=port: per_port.__setitem__(p.index, per_port[p.index] + 1))

        from repro.core.channel import ChannelSet

        channels = ChannelSet.from_vectors(
            risks=[0.0] * 3, losses=[0.0] * 3, delays=[0.0] * 3, rates=[1.0] * 3
        )
        schedule = ShareSchedule.singleton(channels, 2, [0, 2])
        config = ProtocolConfig(kappa=2.0, mu=2.0, symbol_size=100)
        sampler = ExplicitScheduler(schedule, rng)
        sender = ShareSender(engine, ports, sampler, config, np.random.default_rng(1))
        for _ in range(5):
            sender.offer(bytes(100))
        engine.run()
        assert per_port == {0: 5, 1: 0, 2: 5}

    def test_shares_per_channel_counters(self):
        engine = Engine()
        ports = make_ports(engine, n=3)
        sender = make_sender(engine, ports, kappa=1.0, mu=2.0)
        for _ in range(20):
            sender.offer(bytes(100))
        engine.run()
        assert sum(sender.shares_per_channel) == sender.stats.shares_sent == 40


class TestCpuPacing:
    def test_finite_cpu_caps_symbol_rate(self):
        engine = Engine()
        ports = make_ports(engine, byte_rate=1e6, queue_limit=64)
        # 2 work units per symbol (split 1 + one share 1) at capacity 1/unit
        # -> one symbol every 2 time units.
        cpu = CpuModel(engine, capacity=1.0)
        config = ProtocolConfig(kappa=1.0, mu=1.0, symbol_size=100)
        sender = make_sender(engine, ports, config=config, cpu=cpu)
        for _ in range(5):
            sender.offer(bytes(100))
        engine.run()
        assert sender.stats.symbols_sent == 5
        # 5 symbols x 2 units at capacity 1 = 10, plus the final share's
        # serialisation tail on the wire.
        assert engine.now == pytest.approx(10.0, abs=0.01)
