"""Links: serialisation rate, loss, delay, queueing and watchers."""

import numpy as np
import pytest

from repro.netsim.engine import Engine
from repro.netsim.link import DuplexChannel, Link
from repro.netsim.packet import Datagram


def make_link(engine, byte_rate=100.0, loss=0.0, delay=0.0, queue_limit=4, seed=0):
    return Link(
        engine,
        byte_rate=byte_rate,
        loss=loss,
        delay=delay,
        rng=np.random.default_rng(seed),
        queue_limit=queue_limit,
    )


class TestValidation:
    def test_bad_parameters(self):
        engine = Engine()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Link(engine, byte_rate=0.0, loss=0.0, delay=0.0, rng=rng)
        with pytest.raises(ValueError):
            Link(engine, byte_rate=1.0, loss=1.0, delay=0.0, rng=rng)
        with pytest.raises(ValueError):
            Link(engine, byte_rate=1.0, loss=0.0, delay=-1.0, rng=rng)
        with pytest.raises(ValueError):
            Link(engine, byte_rate=1.0, loss=0.0, delay=0.0, rng=rng, queue_limit=0)

    def test_datagram_validation(self):
        with pytest.raises(ValueError):
            Datagram(size=0)
        with pytest.raises(ValueError):
            Datagram(size=2, payload=b"toolong")


class TestSerialisation:
    def test_delivery_time_is_size_over_rate_plus_delay(self):
        engine = Engine()
        link = make_link(engine, byte_rate=100.0, delay=2.0)
        arrivals = []
        link.set_receiver(lambda dg: arrivals.append(engine.now))
        link.send(Datagram(size=50))
        engine.run()
        assert arrivals == [pytest.approx(0.5 + 2.0)]

    def test_back_to_back_packets_serialise_sequentially(self):
        engine = Engine()
        link = make_link(engine, byte_rate=100.0)
        arrivals = []
        link.set_receiver(lambda dg: arrivals.append(engine.now))
        for _ in range(3):
            link.send(Datagram(size=100))
        engine.run()
        assert arrivals == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_throughput_matches_byte_rate(self):
        engine = Engine()
        link = make_link(engine, byte_rate=1000.0, queue_limit=10_000)
        delivered_bytes = []
        link.set_receiver(lambda dg: delivered_bytes.append(dg.size))
        for _ in range(100):
            link.send(Datagram(size=100))
        engine.run()
        assert sum(delivered_bytes) == 10_000
        assert engine.now == pytest.approx(10.0)  # 10k bytes at 1k B/unit

    def test_delivery_preserves_order(self):
        engine = Engine()
        link = make_link(engine, byte_rate=50.0, delay=1.0, queue_limit=100)
        seen = []
        link.set_receiver(lambda dg: seen.append(dg.meta["n"]))
        for n in range(10):
            link.send(Datagram(size=10, meta={"n": n}))
        engine.run()
        assert seen == list(range(10))


class TestQueueing:
    def test_tail_drop_when_full(self):
        engine = Engine()
        link = make_link(engine, queue_limit=2)
        results = [link.send(Datagram(size=10)) for _ in range(5)]
        # First is dequeued immediately for serialisation; two more queue;
        # the rest are dropped.
        assert results[:3] == [True, True, True]
        assert results[3:] == [False, False]
        assert link.stats.queue_drops == 2

    def test_writable_reflects_queue_headroom(self):
        engine = Engine()
        link = make_link(engine, queue_limit=1)
        assert link.writable()
        link.send(Datagram(size=10))  # starts serialising, queue empty
        assert link.writable()
        link.send(Datagram(size=10))  # now queued
        assert not link.writable()

    def test_writable_watcher_fires_on_transition(self):
        engine = Engine()
        link = make_link(engine, byte_rate=10.0, queue_limit=1)
        events = []
        link.watch_writable(lambda: events.append(engine.now))
        link.send(Datagram(size=10))
        link.send(Datagram(size=10))  # fills the queue
        engine.run()
        # Fires when the queued packet starts serialising (t = 1.0).
        assert events == [pytest.approx(1.0)]

    def test_no_watcher_fire_without_full_queue(self):
        engine = Engine()
        link = make_link(engine, queue_limit=4)
        events = []
        link.watch_writable(lambda: events.append(1))
        link.send(Datagram(size=10))
        engine.run()
        assert events == []


class TestLossAndTaps:
    def test_loss_rate_statistical(self):
        engine = Engine()
        link = make_link(engine, byte_rate=1e6, loss=0.3, queue_limit=100_000, seed=42)
        delivered = []
        link.set_receiver(lambda dg: delivered.append(1))
        n = 10_000
        for _ in range(n):
            link.send(Datagram(size=1))
        engine.run()
        assert len(delivered) / n == pytest.approx(0.7, abs=0.02)
        assert link.stats.loss_drops + link.stats.delivered == n

    def test_zero_loss_delivers_everything(self):
        engine = Engine()
        link = make_link(engine, queue_limit=1000)
        count = []
        link.set_receiver(lambda dg: count.append(1))
        for _ in range(50):
            link.send(Datagram(size=1))
        engine.run()
        assert len(count) == 50

    def test_delivers_payload_bytes_untouched(self):
        engine = Engine()
        link = make_link(engine, byte_rate=1e6, queue_limit=100)
        link.set_jitter(0.01)
        received = []
        link.set_receiver(lambda dg: received.append(dg.payload))
        payloads = [bytes([i]) * 12 for i in range(50)]
        for payload in payloads:
            link.send(Datagram(size=12, payload=payload))
        engine.run()
        assert sorted(received) == payloads

    def test_transmit_tap_sees_lost_packets(self):
        """Observation happens at send time: taps fire before the loss draw."""
        engine = Engine()
        link = make_link(engine, byte_rate=1e6, loss=0.5, queue_limit=10_000, seed=1)
        tapped = []
        link.watch_transmit(lambda dg: tapped.append(1))
        delivered = []
        link.set_receiver(lambda dg: delivered.append(1))
        for _ in range(1000):
            link.send(Datagram(size=1))
        engine.run()
        assert len(tapped) == 1000
        assert len(delivered) < 700

    def test_stats_counters_consistent(self):
        engine = Engine()
        link = make_link(engine, byte_rate=100.0, loss=0.2, queue_limit=3, seed=5)
        link.set_receiver(lambda dg: None)
        for _ in range(20):
            link.send(Datagram(size=10))
        engine.run()
        s = link.stats
        assert s.offered == 20
        assert s.serialized == s.offered - s.queue_drops
        assert s.delivered == s.serialized - s.loss_drops


class TestUpDownStateMachine:
    def test_down_link_is_not_writable_and_rejects_sends(self):
        engine = Engine()
        link = make_link(engine)
        link.link_down()
        assert not link.up
        assert not link.writable()
        assert link.send(Datagram(size=10)) is False
        assert link.stats.offered == 1
        assert link.stats.down_drops == 1
        assert link.stats.queue_drops == 0

    def test_down_flushes_queue_and_cuts_inflight(self):
        engine = Engine()
        link = make_link(engine, byte_rate=10.0, delay=5.0, queue_limit=10)
        delivered = []
        link.set_receiver(lambda dg: delivered.append(dg))
        for _ in range(4):
            link.send(Datagram(size=10))
        # t=1: first packet serialised and on the wire (arrives t=6).
        engine.run_until(1.5)
        link.link_down()
        engine.run()
        assert delivered == []
        s = link.stats
        # One aborted mid-serialisation + two flushed from the queue…
        assert s.down_drops == 3
        # …and the one already on the wire never arrives.
        assert s.down_losses == 1
        assert s.serialized == 1
        assert s.delivered == 0

    def test_up_restores_delivery(self):
        engine = Engine()
        link = make_link(engine, byte_rate=100.0)
        delivered = []
        link.set_receiver(lambda dg: delivered.append(dg))
        link.link_down()
        engine.schedule_at(5.0, link.link_up)
        engine.schedule_at(6.0, lambda: link.send(Datagram(size=10)))
        engine.run()
        assert len(delivered) == 1
        assert link.stats.downs == 1 and link.stats.ups == 1

    def test_transitions_are_idempotent(self):
        engine = Engine()
        link = make_link(engine)
        notifications = []
        link.watch_writable(lambda: notifications.append(engine.now))
        link.link_down()
        link.link_down()
        assert link.stats.downs == 1
        link.link_up()
        link.link_up()
        assert link.stats.ups == 1
        assert notifications == [0.0]  # exactly one per down -> up transition

    def test_up_notification_fires_once_per_transition(self):
        engine = Engine()
        link = make_link(engine)
        notifications = []
        link.watch_writable(lambda: notifications.append(engine.now))
        for t in (1.0, 3.0, 5.0):
            engine.schedule_at(t, link.link_down)
            engine.schedule_at(t + 1.0, link.link_up)
        engine.run()
        assert notifications == [2.0, 4.0, 6.0]

    def test_packet_launched_before_flap_dies_even_if_link_is_up_again(self):
        engine = Engine()
        link = make_link(engine, byte_rate=100.0, delay=10.0)
        delivered = []
        link.set_receiver(lambda dg: delivered.append(dg))
        link.send(Datagram(size=10))  # on the wire at t=0.1, arrives t=10.1
        engine.schedule_at(2.0, link.link_down)
        engine.schedule_at(3.0, link.link_up)
        engine.run()
        assert delivered == []
        assert link.stats.down_losses == 1


class TestRuntimeSetters:
    def test_set_rate_applies_to_next_packet(self):
        engine = Engine()
        link = make_link(engine, byte_rate=10.0, queue_limit=10)
        arrivals = []
        link.set_receiver(lambda dg: arrivals.append(engine.now))
        link.send(Datagram(size=10))  # 1 unit at 10 B/unit
        link.send(Datagram(size=10))
        engine.schedule_at(0.5, link.set_rate, 100.0)  # mid-first-packet
        engine.run()
        # First packet keeps its old serialisation time; second uses the new rate.
        assert arrivals == [pytest.approx(1.0), pytest.approx(1.1)]

    def test_set_delay_applies_to_packets_not_yet_on_the_wire(self):
        engine = Engine()
        link = make_link(engine, byte_rate=10.0, delay=5.0, queue_limit=10)
        arrivals = []
        link.set_receiver(lambda dg: arrivals.append(engine.now))
        link.send(Datagram(size=10))
        link.send(Datagram(size=10))
        engine.schedule_at(1.5, link.set_delay, 0.0)  # after the first launched
        engine.run()
        assert arrivals == [pytest.approx(2.0), pytest.approx(6.0)]  # reordered!

    def test_set_loss_changes_the_drop_probability(self):
        engine = Engine()
        link = make_link(engine, byte_rate=1e6, queue_limit=100_000, seed=3)
        link.set_receiver(lambda dg: None)
        for _ in range(1000):
            link.send(Datagram(size=1))
        engine.run()
        assert link.stats.loss_drops == 0
        link.set_loss(0.5)
        for _ in range(1000):
            link.send(Datagram(size=1))
        engine.run()
        assert link.stats.loss_drops / 1000 == pytest.approx(0.5, abs=0.06)

    def test_setters_validate(self):
        engine = Engine()
        link = make_link(engine)
        with pytest.raises(ValueError):
            link.set_rate(0.0)
        with pytest.raises(ValueError):
            link.set_loss(1.0)
        with pytest.raises(ValueError):
            link.set_delay(-0.1)
        with pytest.raises(ValueError):
            link.set_jitter(-0.1)


class TestConservationInvariants:
    @staticmethod
    def _assert_conserved(link, queued=0, inflight=0):
        s = link.stats
        assert s.offered == s.queue_drops + s.down_drops + s.serialized + queued, s
        assert s.serialized == s.loss_drops + s.down_losses + s.delivered + inflight, s

    def test_saturating_sender_tail_drop_accounting(self):
        engine = Engine()
        link = make_link(engine, byte_rate=10.0, queue_limit=3)
        link.set_receiver(lambda dg: None)
        # Offer 10 packets/unit against a 1 packet/unit wire for 20 units.
        for i in range(200):
            engine.schedule_at(i * 0.1, link.send, Datagram(size=10))
        engine.run()
        self._assert_conserved(link)
        # The wire drains 1 packet per unit time; everything else tail-drops.
        assert link.stats.queue_drops > 150
        assert link.stats.delivered == link.stats.serialized

    def test_conservation_through_loss_and_flaps(self):
        engine = Engine()
        link = make_link(engine, byte_rate=20.0, loss=0.3, delay=0.7, queue_limit=3, seed=9)
        link.set_receiver(lambda dg: None)
        for i in range(300):
            engine.schedule_at(i * 0.05, link.send, Datagram(size=10))
        for t in (2.0, 6.0, 11.0):
            engine.schedule_at(t, link.link_down)
            engine.schedule_at(t + 1.5, link.link_up)
        engine.run()
        self._assert_conserved(link)
        s = link.stats
        assert s.downs == 3 and s.ups == 3
        assert s.down_drops > 0
        assert s.loss_drops > 0
        assert s.delivered > 0

    def test_full_to_writable_edge_fires_exactly_once_per_transition(self):
        engine = Engine()
        link = make_link(engine, byte_rate=10.0, queue_limit=2)
        link.set_receiver(lambda dg: None)
        notified = []
        link.watch_writable(lambda: notified.append(engine.now))
        # A bursty saturating sender: five offers every 2 units, then idle.
        # Each burst fills the queue; the watcher must fire exactly when
        # the queue re-opens (full -> writable), once per transition.
        for burst in range(4):
            for _ in range(5):
                engine.schedule_at(burst * 2.0, link.send, Datagram(size=10))
        engine.run()
        assert notified == [pytest.approx(t) for t in (1.0, 2.0, 4.0, 6.0)]
        self._assert_conserved(link)


class TestDuplex:
    def test_directions_are_independent(self):
        engine = Engine()
        duplex = DuplexChannel(
            engine,
            byte_rate=100.0,
            loss=0.0,
            delay=0.5,
            forward_rng=np.random.default_rng(0),
            reverse_rng=np.random.default_rng(1),
            name="chan",
        )
        fwd, rev = [], []
        duplex.forward.set_receiver(lambda dg: fwd.append(engine.now))
        duplex.reverse.set_receiver(lambda dg: rev.append(engine.now))
        duplex.forward.send(Datagram(size=100))
        duplex.reverse.send(Datagram(size=50))
        engine.run()
        assert fwd == [pytest.approx(1.5)]
        assert rev == [pytest.approx(1.0)]

    def test_names(self):
        engine = Engine()
        duplex = DuplexChannel(
            engine, 1.0, 0.0, 0.0,
            np.random.default_rng(0), np.random.default_rng(1), name="x",
        )
        assert duplex.forward.name == "x:fwd"
        assert duplex.reverse.name == "x:rev"


    def test_links_start_without_jitter_or_attack_tap(self):
        # Only an armed attack injector tampers with what a link delivers.
        engine = Engine()
        duplex = DuplexChannel(
            engine, 1.0, 0.0, 0.0,
            np.random.default_rng(0), np.random.default_rng(1), name="x",
        )
        for link in (make_link(engine), *duplex.links):
            assert (link.jitter, link.attack_tap) == (0.0, None)
