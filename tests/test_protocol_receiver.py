"""The reassembly buffer: completion, eviction, late shares, memory bound."""

from collections import OrderedDict, deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.netsim.engine import Engine
from repro.netsim.host import CpuModel
from repro.netsim.packet import Datagram
from repro.protocol.receiver import ReassemblyBuffer, ReceiverStats
from repro.protocol.wire import encode_share
from repro.sharing.shamir import ShamirScheme

scheme = ShamirScheme()


def make_buffer(
    engine, deliveries, timeout=5.0, limit=16, synthetic=False, cpu=None, tolerance=0
):
    return ReassemblyBuffer(
        engine,
        scheme,
        timeout=timeout,
        limit=limit,
        on_deliver=lambda flow, seq, payload, delay: deliveries.append((seq, payload, delay)),
        synthetic=synthetic,
        cpu=cpu,
        byzantine_tolerance=tolerance,
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

    @pytest.mark.parametrize("tolerance,m", [(0, 3), (1, 4)])
    def test_share_index_above_m_does_not_sink_the_symbol(self, tolerance, m):
        # A well-framed share with index 7 > m must not enter the entry:
        # completed with the first valid shares, it would fail the whole
        # symbol's reconstruction.  It is a decode error, and the valid
        # shares deliver (k + 2e of them when robust).
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, tolerance=tolerance)
        good = share_datagrams(1, b"abc", 2, m)
        bad = bytearray(good[0].payload)
        bad[12] = 7  # index field
        buf.handle_datagram(Datagram(size=len(bad), payload=bytes(bad), meta=good[0].meta))
        for datagram in good:
            buf.handle_datagram(datagram)
        assert [d[1] for d in deliveries] == [b"abc"]
        assert buf.stats.decode_errors == 1
        assert buf.stats.reconstruction_errors == 0


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

    @pytest.mark.parametrize("timeout", [-1.0, float("nan")])
    def test_negative_or_nan_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            make_buffer(Engine(), [], timeout=timeout)

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


def synthetic_share(seq, index, k, m, flow=0, sent_at=0.0):
    meta = {"seq": seq, "index": index, "k": k, "m": m, "symbol_sent_at": sent_at}
    if flow:
        meta["flow"] = flow
    return Datagram(size=100, meta=meta)


class PerEntryTimerBuffer:
    """The reference: the synthetic receive path with one eviction timer per
    entry, scheduled when the entry opens and cancelled when it closes (the
    design the deadline sweep replaced)."""

    def __init__(self, engine, timeout, limit, on_deliver, tracer):
        self.engine = engine
        self.timeout = timeout
        self.limit = limit
        self.on_deliver = on_deliver
        self.tracer = tracer
        self.repair_policy = None
        self.stats = ReceiverStats()
        self._table = OrderedDict()
        self._closed = set()
        self._closed_order = deque()

    @property
    def pending(self):
        return len(self._table)

    def handle_datagram(self, datagram):
        meta = datagram.meta
        seq, index, k, m = meta["seq"], meta["index"], meta["k"], meta["m"]
        key = (meta.get("flow", 0), seq)
        self.stats.shares_received += 1
        if key in self._closed:
            self.stats.late_shares += 1
            return
        entry = self._table.get(key)
        if entry is None:
            if len(self._table) >= self.limit:
                evicted_key, oldest = self._table.popitem(last=False)
                oldest.timer.cancel()
                self._count_evicted(oldest)
                self._remember_closed(evicted_key)
            entry = SimpleNamespace(
                flow=key[0], seq=seq, k=k, m=m, shares={}, repair_rounds=0,
                sent_at=meta["symbol_sent_at"],
            )
            entry.timer = self.engine.schedule(self.timeout, self._evict, key)
            self._table[key] = entry
        if index in entry.shares:
            self.stats.duplicate_shares += 1
            return
        entry.shares[index] = None
        if len(entry.shares) >= entry.k:
            del self._table[key]
            entry.timer.cancel()
            self._remember_closed(key)
            if entry.repair_rounds > 0:
                self.stats.repair_recovered += 1
            self.stats.symbols_delivered += 1
            self.on_deliver(key[0], seq, None, self.engine.now - entry.sent_at)

    def _remember_closed(self, key):
        self._closed.add(key)
        self._closed_order.append(key)
        while len(self._closed_order) > self.limit * 4:
            self._closed.discard(self._closed_order.popleft())

    def _evict(self, key):
        entry = self._table.get(key)
        if entry is None:
            return
        if self.repair_policy is not None:
            extension = self.repair_policy(entry)
            if extension is not None:
                self.stats.repair_extensions += 1
                entry.timer = self.engine.schedule(extension, self._evict, key)
                return
        del self._table[key]
        self.tracer.event("reassembly_evict", seq=entry.seq, shares=len(entry.shares), k=entry.k)
        self._count_evicted(entry)

    def _count_evicted(self, entry):
        self.stats.evicted_symbols += 1
        self.stats.evicted_shares += len(entry.shares)


class _Recorder:
    """Delivery sink and tracer: one log of what happened when."""

    def __init__(self, engine):
        self.engine = engine
        self.log = []

    def deliver(self, flow, seq, payload, delay):
        self.log.append(("deliver", self.engine.now, flow, seq, delay))

    def event(self, name, **fields):
        self.log.append((name, self.engine.now, sorted(fields.items())))


TIMEOUT = 2.0


def _script(seed, steps=60):
    """A seeded list of operations on a coarse time grid, so share
    arrivals, deadlines and repair extensions collide in time."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(steps):
        roll = rng.random()
        flow, seq = int(rng.integers(0, 2)), int(rng.integers(0, 6))
        k = 1 + (3 * seq + flow) % 3
        m = k + int(rng.integers(0, 2))
        share = (flow, seq, int(rng.integers(1, m + 1)), k, m)
        offset = 0.25 * int(rng.integers(0, 12))
        if roll < 0.55:
            ops.append(("at", offset, share))
        elif roll < 0.8:
            delay = (TIMEOUT, 0.5, 0.0)[int(rng.integers(0, 3))]
            ops.append(("later", offset, delay, share))
        elif roll < 0.93:
            ops.append(("run_until", offset))
        else:
            ops.append(("run",))
    ops.append(("run",))
    return ops


def _replay(make, ops):
    """Drive one buffer through ``ops``; return everything observable."""
    engine = Engine()
    recorder = _Recorder(engine)
    buf = make(engine, recorder)

    def policy(entry):
        # Deterministic in the entry, so both buffers get the same answers
        # when they ask at the same moments.
        if entry.repair_rounds >= 2 or (entry.seq + entry.repair_rounds) % 3:
            return None
        entry.repair_rounds += 1
        return (0.5, TIMEOUT)[entry.seq % 2]

    buf.repair_policy = policy

    def arrive(share, at):
        flow, seq, index, k, m = share
        buf.handle_datagram(synthetic_share(seq, index, k, m, flow=flow, sent_at=at))

    for op in ops:
        if op[0] == "at":
            at = engine.now + op[1]
            engine.schedule_at(at, arrive, op[2], at)
        elif op[0] == "later":
            _kind, offset, delay, share = op
            engine.schedule_at(
                engine.now + offset,
                lambda share=share, delay=delay: engine.schedule(
                    delay, arrive, share, engine.now + delay
                ),
            )
        elif op[0] == "run_until":
            engine.run_until(engine.now + op[1])
            recorder.log.append(("now", engine.now, buf.pending))
        else:
            engine.run()
            recorder.log.append(("now", engine.now, buf.pending))
    return recorder.log, buf.stats.as_dict()


class TestEvictionTiming:
    """The deadline sweep evicts exactly when, and in exactly the order
    relative to every other event, that a per-entry timer would."""

    def test_eviction_wins_a_tie_with_a_share_scheduled_later(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, synthetic=True)
        engine.schedule_at(0.0, buf.handle_datagram, synthetic_share(0, 1, 1, 1))
        engine.schedule_at(1.0, buf.handle_datagram, synthetic_share(1, 1, 2, 2))
        # Scheduled at t=2 for B's deadline exactly: B's timeout was set up
        # at t=1, so it runs first and the share re-opens B instead.
        engine.schedule_at(
            2.0, lambda: engine.schedule_at(6.0, buf.handle_datagram, synthetic_share(1, 2, 2, 2))
        )
        engine.run()
        assert [seq for seq, _payload, _delay in deliveries] == [0]
        assert buf.stats.evicted_symbols == 2
        assert engine.now == 11.0

    @pytest.mark.parametrize("limit", [2, 3, 16])
    def test_matches_per_entry_timers(self, limit):
        def sweep(engine, recorder):
            buf = ReassemblyBuffer(
                engine, scheme, timeout=TIMEOUT, limit=limit,
                on_deliver=recorder.deliver, synthetic=True,
            )
            buf.tracer = recorder
            return buf

        def timers(engine, recorder):
            return PerEntryTimerBuffer(engine, TIMEOUT, limit, recorder.deliver, recorder)

        covered = dict.fromkeys(
            ("timeouts", "evicted_symbols", "repair_extensions", "duplicate_shares"), 0
        )
        for seed in range(60):
            ops = _script(seed)
            expected = _replay(timers, ops)
            assert _replay(sweep, ops) == expected, f"script seed {seed}"
            log, stats = expected
            covered["timeouts"] += sum(1 for item in log if item[0] == "reassembly_evict")
            for name in ("evicted_symbols", "repair_extensions", "duplicate_shares"):
                covered[name] += stats[name]
        assert all(covered.values()), covered
