"""The discrete-event engine: ordering, cancellation, clock discipline."""

import math

import numpy as np
import pytest

from repro.netsim.engine import Engine


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, order.append, "c")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(2.0, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, order.append, 1)
        engine.schedule(1.0, order.append, 2)
        engine.schedule(1.0, order.append, 3)
        engine.run()
        assert order == [1, 2, 3]

    def test_now_advances_during_run(self):
        engine = Engine()
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]

    def test_run_until_stops_and_sets_clock(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "early")
        engine.schedule(10.0, fired.append, "late")
        engine.run_until(5.0)
        assert fired == ["early"]
        assert engine.now == 5.0
        engine.run_until(20.0)
        assert fired == ["early", "late"]

    def test_callbacks_can_schedule_more(self):
        engine = Engine()
        hits = []

        def recur(depth):
            hits.append(engine.now)
            if depth:
                engine.schedule(1.0, recur, depth - 1)

        engine.schedule(0.0, recur, 3)
        engine.run()
        assert hits == [0.0, 1.0, 2.0, 3.0]

    def test_same_time_self_schedule_runs_after_peers(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: (order.append("first"), engine.schedule(0.0, order.append, "chained")))
        engine.schedule(1.0, order.append, "second")
        engine.run()
        assert order == ["first", "second", "chained"]

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.run_until(5.0)
        with pytest.raises(ValueError):
            engine.schedule_at(4.0, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.run_until(1.0)

    def test_nan_time_rejected_by_schedule_at(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.schedule_at(math.nan, lambda: None)
        assert engine.pending() == 0

    def test_nan_delay_rejected_by_schedule(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.schedule(math.nan, lambda: None)
        engine.run()
        assert engine.now == 0.0
        # A NaN clock would have let this past-time event through.
        with pytest.raises(ValueError):
            engine.schedule_at(-5.0, lambda: None)

    def test_nan_end_time_rejected_by_run_until(self):
        engine = Engine()
        engine.run_until(2.0)
        with pytest.raises(ValueError):
            engine.run_until(math.nan)
        assert engine.now == 2.0
        with pytest.raises(ValueError):
            engine.schedule_at(1.0, lambda: None)


class TestHeapContract:
    """What the tuple heap and the dispatch loop promise their callers."""

    @staticmethod
    def _schedule_grid(engine, seed, count=400):
        """Random events on a coarse grid (many exact ties), some cancelled.

        Returns the ``(time, seq)`` keys of the live events and the list
        their callbacks append to when dispatched.
        """
        rng = np.random.default_rng(seed)
        fired = []
        live = []
        for _ in range(count):
            event = engine.schedule_at(float(rng.integers(0, 8)) / 2, lambda: None)
            event.callback = lambda key=(event.time, event.seq): fired.append(key)
            if rng.random() < 0.25:
                event.cancel()
            else:
                live.append((event.time, event.seq))
        return sorted(live), fired

    def test_run_dispatches_in_time_then_seq_order(self):
        for seed in (0, 1, 2):
            engine = Engine()
            expected, fired = self._schedule_grid(engine, seed)
            engine.run()
            assert fired == expected
            assert engine.events_processed == len(expected)

    def test_chunked_run_until_dispatches_in_the_same_order(self):
        for seed in (0, 1, 2):
            engine = Engine()
            expected, fired = self._schedule_grid(engine, seed)
            for bound in (0.0, 0.5, 0.75, 1.5, 2.0, 3.25, 3.5):
                engine.run_until(bound)
                assert fired == [key for key in expected if key[0] <= bound]
            assert fired == expected

    def test_hook_may_replace_the_callback(self):
        engine = Engine()
        ran = []
        engine.schedule(1.0, ran.append, "original")

        def hook(event, _depth):
            original = event.callback

            def wrapped(*args):
                ran.append("wrapped")
                original(*args)

            event.callback = wrapped

        engine.set_dispatch_hook(hook)
        engine.run()
        assert ran == ["wrapped", "original"]

    def test_hook_sees_time_and_depth_including_cancelled_entries(self):
        engine = Engine()
        seen = []
        engine.set_dispatch_hook(lambda event, depth: seen.append((event.time, depth)))
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None).cancel()
        engine.schedule(3.0, lambda: None)
        assert engine.pending() == 2
        engine.run()
        # At t=1 the cancelled t=2 entry is still in the heap.
        assert seen == [(1.0, 2), (3.0, 0)]
        assert engine.events_processed == 2


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, fired.append, "x")
        event.cancel()
        engine.run()
        assert fired == []

    def test_cancel_after_fire_is_safe(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        engine.run()
        event.cancel()  # no error

    def test_pending_excludes_cancelled(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        drop = engine.schedule(2.0, lambda: None)
        drop.cancel()
        assert engine.pending() == 1

    def test_events_processed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_processed == 5


class TestReservation:
    def test_reserved_number_runs_where_its_reservation_was_made(self):
        engine = Engine()
        fired = []
        engine.schedule_at(1.0, fired.append, "before")
        number = engine.reserve()
        engine.schedule_at(1.0, fired.append, "after")
        engine.schedule_at(0.5, lambda: engine.schedule_at(1.0, fired.append, "late"))
        engine.schedule_at(0.5, lambda: engine.schedule_at(
            1.0, fired.append, "reserved", seq=number
        ))
        engine.run()
        assert fired == ["before", "reserved", "after", "late"]

    def test_reserve_takes_a_number_without_queueing(self):
        engine = Engine()
        first = engine.reserve()
        event = engine.schedule(1.0, lambda: None)
        assert event.seq == first + 1
        assert engine.pending() == 1

    def test_revive_undoes_a_cancel_while_queued(self):
        engine = Engine()
        fired = []
        event = engine.schedule(2.0, fired.append, "x")
        event.cancel()
        engine.run_until(1.0)
        assert engine.revive(event)
        engine.run()
        assert fired == ["x"]

    def test_revive_fails_once_run_until_dropped_the_event(self):
        engine = Engine()
        event = engine.schedule(2.0, lambda: None)
        event.cancel()
        engine.run_until(2.0)
        assert not engine.revive(event)
        assert event.cancelled

    def test_revive_fails_after_run_dropped_the_cancelled_tail(self):
        """``run`` ends at the last live event, so the clock stays before a
        cancelled event it has already dropped: the time alone cannot tell."""
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: None)
        event = engine.schedule(5.0, fired.append, "x")
        event.cancel()
        engine.run()
        assert engine.now == 1.0
        assert not engine.revive(event)
        engine.schedule(1.0, lambda: None)
        engine.run()
        assert fired == []

    def test_revive_fails_for_a_dispatched_event(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        engine.run()
        assert not engine.revive(event)


def _random_workload_trace(seed, end_time=50.0, chunks=1):
    """Drive a randomised self-scheduling workload; return its event trace.

    Callbacks schedule more work, cancel pending events, and mutate a
    faulty link mid-run, exercising every engine code path the fault layer
    relies on.  The trace is the byte-serialised (time, tag) sequence.
    """
    from repro.netsim.faults import FaultInjector, FaultPlan
    from repro.netsim.link import Link
    from repro.netsim.packet import Datagram

    engine = Engine()
    rng = np.random.default_rng(seed)
    trace = []
    pending = {}  # tag -> not-yet-fired Event
    cancelled_tags = set()

    link = Link(engine, byte_rate=50.0, loss=0.2, delay=0.5,
                rng=np.random.default_rng(seed + 1), queue_limit=4)
    link.set_receiver(lambda dg: trace.append((engine.now, "deliver", dg.meta["tag"])))
    plan = (FaultPlan()
            .link_down(12.0, channel=0, direction="fwd")
            .link_up(15.0, channel=0, direction="fwd")
            .set_loss(20.0, 0.5, channel=0, direction="fwd")
            .set_rate(30.0, scale=0.5, channel=0, direction="fwd"))

    class _OneLink:  # duck-types DuplexChannel for the injector
        forward = link
        reverse = link

    FaultInjector(engine, [_OneLink()], plan).arm()

    def tick(tag):
        pending.pop(tag, None)  # this event has now fired
        trace.append((engine.now, "tick", tag))
        for _ in range(int(rng.integers(0, 3))):
            child = int(rng.integers(1_000, 1_000_000))
            pending[child] = engine.schedule(float(rng.uniform(0, 5)), tick, child)
        if pending and rng.random() < 0.3:
            victim_tag = sorted(pending)[int(rng.integers(0, len(pending)))]
            pending.pop(victim_tag).cancel()
            cancelled_tags.add(victim_tag)
        if rng.random() < 0.5:
            link.send(Datagram(size=25, meta={"tag": tag}))

    for n in range(30):
        engine.schedule(float(rng.uniform(0, end_time / 2)), tick, n)

    # Optionally split the run into arbitrary run_until increments.
    if chunks == 1:
        engine.run_until(end_time)
    else:
        for bound in np.linspace(end_time / chunks, end_time, chunks):
            engine.run_until(float(bound))
    return repr(trace).encode(), trace, cancelled_tags, engine


class TestDeterminismProperties:
    def test_same_seed_runs_are_byte_identical_with_faults(self):
        for seed in (0, 7, 123):
            first, *_ = _random_workload_trace(seed)
            second, *_ = _random_workload_trace(seed)
            assert first == second

    def test_different_seeds_diverge(self):
        first, *_ = _random_workload_trace(1)
        second, *_ = _random_workload_trace(2)
        assert first != second

    def test_run_until_chunking_does_not_change_the_trace(self):
        whole, *_ = _random_workload_trace(42, chunks=1)
        for chunks in (2, 7, 50):
            split, *_ = _random_workload_trace(42, chunks=chunks)
            assert split == whole

    def test_cancelled_events_never_fire(self):
        for seed in (3, 9):
            _, trace, cancelled, _ = _random_workload_trace(seed)
            fired_ticks = {tag for _, kind, tag in trace if kind == "tick"}
            assert not fired_ticks & cancelled

    def test_clock_is_monotonic_throughout(self):
        _, trace, _, engine = _random_workload_trace(5)
        times = [t for t, *_ in trace]
        assert times == sorted(times)
        assert engine.now == 50.0

    def test_same_time_events_fire_in_scheduling_order(self):
        engine = Engine()
        rng = np.random.default_rng(0)
        fired = []
        expected = {}
        serial = 0
        # Many events on a coarse time grid -> plenty of exact ties.
        for _ in range(500):
            t = float(rng.integers(0, 10))
            tag = serial
            serial += 1
            expected.setdefault(t, []).append(tag)
            engine.schedule_at(t, lambda t=t, tag=tag: fired.append((t, tag)))
        engine.run()
        for t, tags in expected.items():
            assert [tag for ft, tag in fired if ft == t] == tags
