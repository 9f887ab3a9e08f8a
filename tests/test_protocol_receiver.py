"""The reassembly buffer: completion, eviction, late shares, memory bound."""

import numpy as np
import pytest

from repro.netsim.engine import Engine
from repro.netsim.host import CpuModel
from repro.netsim.packet import Datagram
from repro.protocol.receiver import ReassemblyBuffer
from repro.protocol.wire import encode_share
from repro.sharing.shamir import ShamirScheme

scheme = ShamirScheme()


def make_buffer(engine, deliveries, timeout=5.0, limit=16, synthetic=False, cpu=None):
    return ReassemblyBuffer(
        engine,
        scheme,
        timeout=timeout,
        limit=limit,
        on_deliver=lambda flow, seq, payload, delay: deliveries.append((seq, payload, delay)),
        synthetic=synthetic,
        cpu=cpu,
    )


def share_datagrams(seq, secret, k, m, seed=0, sent_at=0.0):
    rng = np.random.default_rng(seed)
    packets = []
    for share in scheme.split(secret, k, m, rng):
        packet = encode_share(seq, share, scheme.name)
        packets.append(
            Datagram(size=len(packet), payload=packet, meta={"symbol_sent_at": sent_at})
        )
    return packets


class TestCompletion:
    def test_delivers_at_k_shares(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"hello", 2, 4)
        buf.handle_datagram(datagrams[0])
        assert deliveries == []
        buf.handle_datagram(datagrams[1])
        assert deliveries[0][0] == 1
        assert deliveries[0][1] == b"hello"

    def test_delay_measured_from_symbol_send(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"hi", 1, 1, sent_at=0.0)
        engine.schedule_at(2.5, buf.handle_datagram, datagrams[0])
        engine.run()
        assert deliveries[0][2] == pytest.approx(2.5)

    def test_late_share_counted_and_ignored(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"abc", 2, 3)
        for dg in datagrams:
            buf.handle_datagram(dg)
        assert len(deliveries) == 1
        assert buf.stats.late_shares == 1

    def test_duplicate_share_ignored(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"abc", 2, 3)
        buf.handle_datagram(datagrams[0])
        buf.handle_datagram(datagrams[0])
        assert buf.stats.duplicate_shares == 1
        assert deliveries == []

    def test_interleaved_symbols(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        a = share_datagrams(1, b"symbol-a", 2, 2, seed=1)
        b = share_datagrams(2, b"symbol-b", 2, 2, seed=2)
        buf.handle_datagram(a[0])
        buf.handle_datagram(b[0])
        buf.handle_datagram(b[1])
        buf.handle_datagram(a[1])
        assert [d[0] for d in deliveries] == [2, 1]
        assert [d[1] for d in deliveries] == [b"symbol-b", b"symbol-a"]

    def test_decode_error_counted(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        buf.handle_datagram(Datagram(size=10, payload=b"garbage!!!"))
        assert buf.stats.decode_errors == 1


class TestEviction:
    def test_timeout_evicts_incomplete(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, timeout=2.0)
        datagrams = share_datagrams(1, b"gone", 2, 3)
        buf.handle_datagram(datagrams[0])
        engine.run_until(3.0)
        assert buf.pending == 0
        assert buf.stats.evicted_symbols == 1
        # A share arriving after eviction re-opens an entry (it cannot be
        # distinguished from a new symbol), so it is not counted late.
        buf.handle_datagram(datagrams[1])
        assert buf.pending == 1

    def test_completion_cancels_eviction(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, timeout=2.0)
        for dg in share_datagrams(1, b"done", 2, 2):
            buf.handle_datagram(dg)
        engine.run_until(5.0)
        assert buf.stats.evicted_symbols == 0
        assert len(deliveries) == 1

    def test_memory_bound_evicts_oldest(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, limit=2)
        for seq in (1, 2, 3):
            buf.handle_datagram(share_datagrams(seq, b"x", 2, 2, seed=seq)[0])
        assert buf.pending == 2
        assert buf.stats.evicted_symbols == 1
        # Symbol 1 (the oldest) was evicted; completing 2 and 3 works.
        buf.handle_datagram(share_datagrams(2, b"x", 2, 2, seed=2)[1])
        buf.handle_datagram(share_datagrams(3, b"x", 2, 2, seed=3)[1])
        assert [d[0] for d in deliveries] == [2, 3]

    def test_capacity_eviction_remembers_closed_seq(self):
        """Regression: a capacity eviction is a deliberate close, so a
        straggler for the evicted symbol must count as late instead of
        re-opening an entry that can never complete (which would evict
        yet another live symbol at the memory bound)."""
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, limit=2)
        datagrams = {
            seq: share_datagrams(seq, b"x", 2, 3, seed=seq) for seq in (1, 2, 3)
        }
        for seq in (1, 2, 3):
            buf.handle_datagram(datagrams[seq][0])
        assert buf.stats.evicted_symbols == 1  # seq 1 fell off the front
        late_before = buf.stats.late_shares
        buf.handle_datagram(datagrams[1][1])
        assert buf.stats.late_shares == late_before + 1
        assert buf.pending == 2  # no fresh entry, nothing else evicted
        assert buf.stats.evicted_symbols == 1
        # The live symbols still complete normally.
        buf.handle_datagram(datagrams[2][1])
        buf.handle_datagram(datagrams[3][1])
        assert [d[0] for d in deliveries] == [2, 3]

    def test_repair_policy_extends_timeout_once(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, timeout=2.0)
        grants = []

        def policy(entry):
            if entry.repair_rounds >= 1:
                return None  # budget spent: let the eviction proceed
            entry.repair_rounds += 1
            grants.append(entry.seq)
            return 1.5

        buf.repair_policy = policy
        datagrams = share_datagrams(1, b"fixed", 2, 3)
        buf.handle_datagram(datagrams[0])
        engine.run_until(2.5)  # past the base timeout, inside the extension
        assert grants == [1]
        assert buf.stats.repair_extensions == 1
        assert buf.stats.evicted_symbols == 0
        assert buf.pending == 1
        engine.schedule_at(3.0, buf.handle_datagram, datagrams[1])
        engine.run_until(10.0)
        assert [d[0] for d in deliveries] == [1]
        assert buf.stats.repair_recovered == 1

    def test_repair_policy_exhausted_evicts(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, timeout=2.0)
        buf.repair_policy = lambda entry: None
        buf.handle_datagram(share_datagrams(1, b"gone", 2, 3)[0])
        engine.run_until(3.0)
        assert buf.stats.repair_extensions == 0
        assert buf.stats.evicted_symbols == 1
        assert buf.pending == 0


class TestSyntheticMode:
    def test_counts_headers_without_payload(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, synthetic=True)
        for index in (1, 2):
            buf.handle_datagram(
                Datagram(size=100, meta={"seq": 9, "index": index, "k": 2, "m": 3,
                                         "symbol_sent_at": 0.0})
            )
        assert deliveries[0][0] == 9
        assert deliveries[0][1] is None


class TestCpuIntegration:
    def test_finite_cpu_delays_delivery(self):
        engine = Engine()
        deliveries = []
        cpu = CpuModel(engine, capacity=1.0)
        buf = make_buffer(engine, deliveries, cpu=cpu)
        buf.share_cost = 1.0
        buf.reconstruct_cost_per_k = 1.0
        for dg in share_datagrams(1, b"slow", 1, 1):
            buf.handle_datagram(dg)
        assert deliveries == []  # CPU still working
        engine.run()
        # 1 unit share processing + 1 unit reconstruction.
        assert len(deliveries) == 1
        assert engine.now == pytest.approx(2.0)

    def test_saturated_cpu_rejects_shares(self):
        engine = Engine()
        deliveries = []
        cpu = CpuModel(engine, capacity=0.1, queue_limit=1)
        buf = make_buffer(engine, deliveries, cpu=cpu)
        for seq in range(10):
            buf.handle_datagram(share_datagrams(seq, b"x", 1, 1, seed=seq)[0])
        assert buf.stats.cpu_rejected_shares > 0
