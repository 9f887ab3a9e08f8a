"""CPU model, rng registry and block-drawn bytes, datagrams, trace meters,
ports and readiness selector."""

import gc
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.active import CANONICAL_ATTACKS, canonical_attack, run_under_attack
from repro.netsim.engine import Engine
from repro.netsim.host import CpuModel
from repro.netsim.link import Link
from repro.netsim.packet import Datagram
from repro.netsim.ports import ChannelPort
from repro.netsim.readiness import WriteSelector
from repro.netsim.rng import RandomBytes, RngRegistry
from repro.netsim.trace import DelayStats, RateMeter
from repro.protocol.config import ProtocolConfig
from repro.sharing.blakley import BlakleyScheme
from repro.sharing.ramp import RampScheme
from repro.sharing.shamir import ShamirScheme
from repro.sharing.xor import XorScheme
from repro.workloads.fleet import run_fleet
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import SYMBOL_SIZE, diverse_setup


class TestCpuModel:
    def test_finite_capacity_paces_work(self):
        engine = Engine()
        cpu = CpuModel(engine, capacity=10.0)
        done = []
        for _ in range(3):
            cpu.submit(10.0, lambda: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_queue_limit_rejects(self):
        engine = Engine()
        cpu = CpuModel(engine, capacity=1.0, queue_limit=2)
        accepted = [cpu.submit(1.0, lambda: None) for _ in range(5)]
        # First starts immediately (popped off the queue), two wait, rest drop.
        assert accepted == [True, True, True, False, False]
        assert cpu.rejected == 2

    def test_saturated_and_backlog(self):
        engine = Engine()
        cpu = CpuModel(engine, capacity=1.0)
        cpu.submit(5.0, lambda: None)
        cpu.submit(5.0, lambda: None)
        assert cpu.saturated()
        assert cpu.backlog == 1
        engine.run()
        assert not cpu.saturated()

    def test_busy_time_accounting(self):
        engine = Engine()
        cpu = CpuModel(engine, capacity=2.0)
        cpu.submit(4.0, lambda: None)
        engine.run()
        assert cpu.busy_time == pytest.approx(2.0)
        assert cpu.completed == 1

    def test_invalid_parameters(self):
        engine = Engine()
        with pytest.raises(ValueError):
            CpuModel(engine, capacity=0.0)
        with pytest.raises(ValueError):
            CpuModel(engine, capacity=1.0, queue_limit=0)
        cpu = CpuModel(engine, capacity=1.0)
        with pytest.raises(ValueError):
            cpu.submit(-1.0, lambda: None)

    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            CpuModel(Engine(), capacity=float("nan"))

    def test_nan_cost_rejected_at_submit(self):
        cpu = CpuModel(Engine(), capacity=1.0)
        ran = []
        with pytest.raises(ValueError, match="cost"):
            cpu.submit(float("nan"), lambda: ran.append(1))
        assert ran == [] and cpu.backlog == 0


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_different_names_independent(self):
        registry = RngRegistry(1)
        a = registry.stream("a").random(4)
        b = registry.stream("b").random(4)
        assert not np.allclose(a, b)

    def test_same_seed_reproducible(self):
        x = RngRegistry(42).stream("link0").random(8)
        y = RngRegistry(42).stream("link0").random(8)
        np.testing.assert_array_equal(x, y)

    def test_different_seed_differs(self):
        x = RngRegistry(1).stream("link0").random(8)
        y = RngRegistry(2).stream("link0").random(8)
        assert not np.allclose(x, y)

    def test_stream_isolation_from_creation_order(self):
        r1 = RngRegistry(7)
        r1.stream("noise").random(100)
        value1 = r1.stream("target").random()
        r2 = RngRegistry(7)
        value2 = r2.stream("target").random()
        assert value1 == value2

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(-1)

    @pytest.mark.parametrize("seed", [1.5, "7", None, True])
    def test_non_integer_seed_rejected_at_construction(self, seed):
        with pytest.raises(TypeError, match=re.escape(repr(seed))):
            RngRegistry(seed)

    def test_non_str_name_rejected_at_the_call(self):
        with pytest.raises(TypeError, match="123"):
            RngRegistry(1).stream(123)


#: RandomBytes' refill block, in bytes (1024 words).
BLOCK_BYTES = 4096

#: Request sizes: 0-3, multiples of 4 and one either side of them, and
#: sizes about and above the block.
request_sizes = st.one_of(
    st.integers(0, 3),
    st.builds(
        lambda words, skew: 4 * words + skew, st.integers(1, 400), st.sampled_from([-1, 0, 1])
    ),
    st.integers(BLOCK_BYTES - 5, 3 * BLOCK_BYTES),
)


def direct_draw(generator, n):
    return generator.integers(0, 256, size=n, dtype=np.uint8).tobytes()


#: ``integers`` spans: 1 draws nothing, 3, 7, 255 and 1000 reject some
#: words, powers of two reject none, and 2**32 is a whole word.
integer_spans = st.sampled_from([1, 2, 3, 7, 64, 255, 256, 1000, 2**31, 2**32])

#: Interleaved calls: ``random()``, ``integers(low, low + span)`` with
#: negative lows too, and ``bytes(n)`` up to past a refill block.
mixed_calls = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(st.just("integers"), st.integers(-(2**33), 2**33), integer_spans),
        st.tuples(st.just("bytes"), st.integers(1, 5000)),
    ),
    max_size=60,
)


class TestRandomBytes:
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(request_sizes, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_draws(self, seed, sizes):
        source = RandomBytes(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        # Generator.bytes(0) draws a word, so this twin skips n = 0.
        bytes_twin = np.random.default_rng(seed)
        for n in sizes:
            served = source.bytes(n)
            assert served == direct_draw(twin, n)
            if n:
                assert served == bytes_twin.bytes(n)

    @given(seed=st.integers(0, 2**32 - 1), calls=mixed_calls)
    @settings(max_examples=150, deadline=None)
    def test_mixed_draws_match_the_generator(self, seed, calls):
        source = RandomBytes(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        for kind, *args in calls:
            if kind == "random":
                assert source.random() == twin.random()
            elif kind == "integers":
                low, span = args
                assert source.integers(low, low + span) == twin.integers(low, low + span)
            else:
                assert source.bytes(args[0]) == twin.bytes(args[0])

    def test_random_leaves_a_buffered_half_word_for_the_next_word(self):
        # A 4-byte draw buffers the high half of raw output 0; random()
        # takes output 1 whole, and the next 4 bytes are that high half.
        raw = np.random.default_rng(5).bit_generator.random_raw(3).astype("<u8").tobytes()
        source = RandomBytes(np.random.default_rng(5))
        twin = np.random.default_rng(5)
        assert source.bytes(4) == twin.bytes(4) == raw[0:4]
        output = int.from_bytes(raw[8:16], "little")
        assert source.random() == twin.random() == (output >> 11) / 2**53
        assert source.bytes(4) == twin.bytes(4) == raw[4:8]
        assert source.bytes(4) == twin.bytes(4) == raw[16:20]

    def test_a_refill_keeps_the_half_word_aligned(self):
        # A 4-byte request's first refill draws 8 words; 28 bytes leave the
        # high half of its fourth raw output buffered at the end.  random()
        # must then draw the output after it from the next refill and leave
        # the half for the next word.
        source = RandomBytes(np.random.default_rng(0))
        twin = np.random.default_rng(0)
        assert source.bytes(4) + source.bytes(24) == twin.bytes(4) + twin.bytes(24)
        assert repr(source).endswith("buffered=4)")
        assert source.random() == twin.random()
        assert source.integers(0, 2**32) == twin.integers(0, 2**32)
        assert source.random() == twin.random()

    def test_a_span_of_one_draws_nothing(self):
        generator = np.random.default_rng(6)
        source = RandomBytes(generator)
        assert source.integers(-3, -2) == -3
        assert repr(source) == f"RandomBytes({generator!r}, buffered=0)"
        assert source.bytes(8) == np.random.default_rng(6).bytes(8)

    @pytest.mark.parametrize(
        "low, high", [(5, 5), (5, 4), (0, 2**32 + 1), (-(2**40), 2**40)],
        ids=["empty", "reversed", "above-a-word", "64-bit"],
    )
    def test_empty_and_64_bit_spans_are_refused(self, low, high):
        with pytest.raises(ValueError, match="high - low"):
            RandomBytes(np.random.default_rng(0)).integers(low, high)

    def test_requests_straddling_refills_and_the_block(self):
        # 313-word payloads do not divide a 1024-word block, so from the
        # fourth on requests start in one block and end in the next; 1250
        # words is one request above the block, and a 0 must draw nothing.
        sizes = [1250] * 7 + [0, 1, 2, 3, 4, 5, 7, 8, 9, 4 * 1250, 3001, BLOCK_BYTES, 1250]
        source = RandomBytes(np.random.default_rng(9))
        twin = np.random.default_rng(9)
        for n in sizes:
            assert source.bytes(n) == direct_draw(twin, n)

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
    )
    def test_odd_word_refills_keep_the_trailing_half_word(self, bit_generator):
        # 4097 bytes need 1025 words, one more than the block: that refill
        # draws 513 raw words and the next request is served from the
        # trailing half; 8193 bytes make another odd refill after 5000 and
        # 3001 straddle blocks.
        sizes = [4097, 1, 3, 5, 13, 5000, 3001, 8193, 2]
        source = RandomBytes(np.random.Generator(bit_generator(4)))
        twin = np.random.Generator(bit_generator(4))
        bytes_twin = np.random.Generator(bit_generator(4))
        for n in sizes:
            served = source.bytes(n)
            assert served == direct_draw(twin, n)
            assert served == bytes_twin.bytes(n)

    def test_a_32_bit_generator_is_refused(self):
        with pytest.raises(ValueError, match="MT19937"):
            RandomBytes(np.random.Generator(np.random.MT19937(0)))

    def test_refills_draw_raw_words_only(self):
        calls = []

        class RawSpy(np.random.PCG64):
            def random_raw(self, size=None, output=True):
                calls.append(("random_raw", size))
                return super().random_raw(size, output)

        class GeneratorSpy:
            """Logs every generator attribute read other than the bit generator."""

            def __init__(self):
                self.bit_generator = RawSpy(2)
                self._generator = np.random.Generator(self.bit_generator)

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self._generator, name)

        source = RandomBytes(GeneratorSpy())
        twin = np.random.default_rng(2)
        for n in [4097, 1250, 1250, 64]:
            assert source.bytes(n) == direct_draw(twin, n)
        # 1025 words need 513 raw ones; then a 1024-word block.
        assert calls == [("random_raw", 513), ("random_raw", 512)]

    def test_quick_ledger_runs_refill_as_often(self, monkeypatch):
        # The ledger's quick testbed_real, fleet_auth and attack_auth runs at
        # seed 1.  Every pad or payload refill of theirs draws an even number
        # of words, so raw draws refill exactly as often as 32-bit word draws
        # did.  The attack runs' attack.ch<i>.<dir> streams are counted apart.
        refills = [0]
        attack_refills = [0]
        refill = RandomBytes._refill

        def counting(self, missing, request):
            if repr(self._generator).startswith("RngStream('attack."):
                attack_refills[0] += 1
            else:
                refills[0] += 1
            refill(self, missing, request)

        monkeypatch.setattr(RandomBytes, "_refill", counting)
        channels = diverse_setup()
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=SYMBOL_SIZE)
        rate = practical_max_rate(channels, 3.0, SYMBOL_SIZE)
        run_iperf(channels, config, rate, duration=30.0, warmup=5.0, seed=1)
        counts = [refills[0]]
        run_fleet(
            flows=192, shards=1, symbol_size=64, spec_id="bench/fleet_auth/1",
            symbols_per_flow=8, synthetic=False, auth=True,
        )
        counts.append(refills[0] - sum(counts))
        assert attack_refills == [0]
        for name in sorted(CANONICAL_ATTACKS):
            plan = canonical_attack(name, 4.0, 204.0)
            run_under_attack(plan, symbol_size=64, duration=200.0, warmup=4.0, seed=1, auth=True)
        counts.append(refills[0] - sum(counts))
        assert counts == [1586, 233, 90]
        assert attack_refills == [142]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RandomBytes(np.random.default_rng(0)).bytes(-1)

    def test_a_drained_buffer_is_dropped(self):
        # Eight 64-byte payloads drain the first 512-byte refill; the stream
        # then holds no bytes, and its next refill still doubles to 1024.
        generator = np.random.default_rng(3)
        source = RandomBytes(generator)
        for _ in range(8):
            source.bytes(64)
        held = [len(r) for r in gc.get_referents(source) if isinstance(r, bytes)]
        assert sum(held) == 0
        source.bytes(64)
        assert repr(source) == f"RandomBytes({generator!r}, buffered=960)"

    def test_repr_shows_no_buffered_bytes(self):
        generator = np.random.default_rng(3)
        source = RandomBytes(generator)
        source.bytes(1250)
        source.bytes(1250)  # both requests came from one 4096-byte refill
        assert repr(source) == f"RandomBytes({generator!r}, buffered=1592)"

    def test_refills_are_sized_from_the_request(self):
        # A 64-byte payload stream draws eight payloads' worth first, not a
        # whole 1024-word block; once drained, the next refill doubles.
        generator = np.random.default_rng(3)
        source = RandomBytes(generator)
        source.bytes(64)
        assert repr(source) == f"RandomBytes({generator!r}, buffered=448)"
        for _ in range(8):
            source.bytes(64)
        assert repr(source) == f"RandomBytes({generator!r}, buffered=960)"

    @pytest.mark.parametrize(
        "scheme,k,m,secrets",
        [
            (ShamirScheme(), 2, 3, [b"", b"x", b"abcde", bytes(range(256)) * 5, b"tail"]),
            (ShamirScheme(), 3, 5, [b"abc", b"", bytes(1250), b"z"]),
            (RampScheme(blocks=2), 3, 4, [b"", b"ramp", bytes(range(200)) * 6]),
            (XorScheme(), 3, 3, [b"", b"xor", bytes(1250)]),
            (BlakleyScheme(), 2, 3, [b"", b"blakley", bytes(range(64))]),
        ],
        ids=["shamir-2-3", "shamir-3-5", "ramp", "xor", "blakley"],
    )
    def test_split_matches_a_generator(self, scheme, k, m, secrets):
        direct = np.random.default_rng(11)
        buffered = RandomBytes(np.random.default_rng(11))
        for secret in secrets:
            assert scheme.split(secret, k, m, buffered) == scheme.split(secret, k, m, direct)
        assert scheme.split_many(secrets, k, m, buffered) == scheme.split_many(
            secrets, k, m, direct
        )


class TestDatagram:
    def test_fields_live_in_slots(self):
        datagram = Datagram(size=10)
        assert not hasattr(datagram, "__dict__")
        with pytest.raises(AttributeError):
            datagram.channel = 1

    def test_size_and_payload_checks(self):
        with pytest.raises(ValueError, match="datagram size must be positive, got 0"):
            Datagram(size=0)
        with pytest.raises(ValueError, match="payload of 7 bytes exceeds datagram size 2"):
            Datagram(2, b"toolong")

    def test_equal_fields_compare_equal(self):
        datagram = Datagram(8, b"abc", 1.5, {"seq": 3})
        assert datagram == Datagram(size=8, payload=b"abc", sent_at=1.5, meta={"seq": 3})
        assert datagram != Datagram(size=8, payload=b"abc", sent_at=1.5)
        assert datagram != (8, b"abc", 1.5, {"seq": 3})
        with pytest.raises(TypeError):
            hash(datagram)

    def test_repr(self):
        assert repr(Datagram(size=8, payload=b"ab", meta={"seq": 3})) == (
            "Datagram(size=8, payload=b'ab', sent_at=-1.0, meta={'seq': 3})"
        )

    def test_default_meta_is_fresh(self):
        first, second = Datagram(size=1), Datagram(size=1)
        first.meta["seq"] = 1
        assert second.meta == {}


class TestRateMeter:
    def test_window_accounting(self):
        meter = RateMeter()
        meter.record(0.5)  # before start: ignored
        meter.start(1.0)
        meter.record(1.5)
        meter.record(2.5)
        meter.stop(3.0)
        meter.record(3.5)  # after stop: ignored
        assert meter.count == 2
        assert meter.rate() == pytest.approx(1.0)

    def test_unstarted_meter_raises(self):
        with pytest.raises(RuntimeError):
            RateMeter().rate()

    def test_zero_length_window_is_zero_rate(self):
        meter = RateMeter()
        meter.start(2.0)
        meter.record(2.0)
        meter.stop(2.0)
        assert meter.rate() == 0.0

    def test_zero_length_empty_window(self):
        meter = RateMeter()
        meter.start(0.0)
        meter.stop(0.0)
        assert meter.rate() == 0.0


class TestDelayStats:
    def test_moments(self):
        stats = DelayStats()
        for v in (1.0, 2.0, 3.0, 4.0):
            stats.record(v)
        assert stats.mean == pytest.approx(2.5)
        assert stats.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
        assert stats.stddev == pytest.approx(math.sqrt(stats.variance))
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0

    def test_single_observation(self):
        stats = DelayStats()
        stats.record(5.0)
        assert stats.variance == 0.0


def _port(engine, index, queue_limit=4, byte_rate=100.0):
    link = Link(
        engine, byte_rate=byte_rate, loss=0.0, delay=0.0,
        rng=np.random.default_rng(index), queue_limit=queue_limit,
    )
    return ChannelPort(index, link)


class TestPortsAndSelector:
    def test_port_send_and_receive(self):
        engine = Engine()
        port = _port(engine, 0)
        got = []
        port.on_receive(lambda dg: got.append(dg.size))
        port.send(Datagram(size=10))
        engine.run()
        assert got == [10]

    def test_headroom(self):
        engine = Engine()
        port = _port(engine, 0, queue_limit=3)
        assert port.headroom == 3
        port.send(Datagram(size=10))  # serialising, not queued
        port.send(Datagram(size=10))  # queued
        assert port.headroom == 2

    def test_selector_needs_enough_ready(self):
        engine = Engine()
        ports = [_port(engine, i, queue_limit=1) for i in range(3)]
        selector = WriteSelector(ports)
        assert len(selector.select(3)) == 3
        # Fill one port's queue entirely.
        ports[0].send(Datagram(size=1000))
        ports[0].send(Datagram(size=1000))
        assert not ports[0].writable()
        assert selector.select(3) == []
        assert len(selector.select(2)) == 2

    def test_headroom_ordering_prefers_emptier(self):
        engine = Engine()
        ports = [_port(engine, i, queue_limit=4) for i in range(3)]
        ports[1].send(Datagram(size=1000))
        ports[1].send(Datagram(size=1000))
        selector = WriteSelector(ports, ordering="headroom")
        chosen = selector.select(2)
        assert [p.index for p in chosen] == [0, 2]

    def test_fixed_ordering_is_index_order(self):
        engine = Engine()
        ports = [_port(engine, i, queue_limit=4) for i in range(3)]
        ports[0].send(Datagram(size=1000))
        ports[0].send(Datagram(size=1000))
        selector = WriteSelector(ports, ordering="fixed")
        chosen = selector.select(2)
        assert [p.index for p in chosen] == [0, 1]

    def test_unknown_ordering_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            WriteSelector([_port(engine, 0)], ordering="random")

    def test_link_headroom_is_writability_in_one_call(self):
        engine = Engine()
        port = _port(engine, 0, queue_limit=2)
        for _ in range(4):
            assert (port.link.headroom() > 0) == port.writable()
            assert port.link.headroom() == port.headroom
            port.send(Datagram(size=1000))
        port.link.link_down()
        assert port.link.headroom() == 0
        assert not port.writable()

    @pytest.mark.parametrize("ordering", WriteSelector.ORDERINGS)
    def test_ready_matches_reference_sort(self, ordering):
        rng = np.random.default_rng(11)
        for _ in range(200):
            engine = Engine()
            ports = [_port(engine, i, queue_limit=3) for i in range(5)]
            for port in ports:
                for _ in range(int(rng.integers(0, 6))):
                    port.send(Datagram(size=1000))
                if rng.random() < 0.2:
                    port.link.link_down()
            selector = WriteSelector(ports, ordering=ordering)
            selector.set_excluded(i for i in range(5) if rng.random() < 0.2)
            reference = [
                port for port in ports
                if port.index not in selector.excluded and port.writable()
            ]
            if ordering == "headroom":
                reference.sort(key=lambda port: (-port.headroom, port.index))
            assert selector.ready() == reference

    @pytest.mark.parametrize("ordering", WriteSelector.ORDERINGS)
    def test_ready_bound_never_changes_a_selection(self, ordering):
        # One long-lived selector through sends, drains, outages and mask
        # changes: skipping a scan must never hide ports a scan would find.
        rng = np.random.default_rng(19)
        engine = Engine()
        ports = [_port(engine, i, queue_limit=3) for i in range(5)]
        selector = WriteSelector(ports, ordering=ordering)
        for _ in range(3000):
            action = rng.random()
            port = ports[int(rng.integers(0, 5))]
            if action < 0.5:
                port.send(Datagram(size=int(rng.integers(100, 2000))))
            elif action < 0.8:
                engine.run_until(engine.now + float(rng.uniform(0.0, 15.0)))
            elif action < 0.9:
                if port.link.up:
                    port.link.link_down()
                else:
                    port.link.link_up()
            else:
                selector.set_excluded(i for i in range(5) if rng.random() < 0.3)
            for count in rng.permutation(np.arange(1, 6)):
                ready = selector.ready()
                expected = ready[:count] if len(ready) >= count else []
                assert selector.select(int(count)) == expected

    def test_short_state_is_not_rescanned(self, monkeypatch):
        engine = Engine()
        ports = [_port(engine, i, queue_limit=1) for i in range(3)]
        selector = WriteSelector(ports)
        for _ in range(2):
            ports[0].send(Datagram(size=1000))
        assert selector.select(3) == []
        scans = []
        monkeypatch.setattr(selector, "ready", lambda: scans.append(1) or [])
        assert selector.select(3) == []
        assert scans == []
        # The writable edge of the drained port makes a scan worth running.
        engine.run_until(10.0)
        monkeypatch.undo()
        assert len(selector.select(3)) == 3

    def test_port_receive_callback_sits_on_the_link(self):
        engine = Engine()
        port = _port(engine, 0)
        # Wired but not yet listened on: deliveries and injections are dropped.
        assert port.link.inject(Datagram(size=10))
        got = []
        port.on_receive(got.append)
        datagram = Datagram(size=10)
        assert port.link.inject(datagram)
        assert got == [datagram]
