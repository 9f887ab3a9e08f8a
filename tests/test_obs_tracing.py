"""Unit tests for the structured tracer: events, ring buffer."""

import pytest

from repro.obs.tracing import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestEvents:
    def test_point_event_stamped_with_sim_time(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.now = 2.5
        tracer.event("share_tx", channel=3)
        (event,) = tracer.events
        assert event.time == 2.5
        assert event.kind == "event"
        assert event.name == "share_tx"
        assert event.fields == {"channel": 3}

    def test_as_dict_omits_empty_fields(self):
        tracer = Tracer(FakeClock())
        tracer.event("tick")
        (event,) = tracer.events
        assert event.as_dict() == {"time": 0.0, "kind": "event", "name": "tick"}


class TestRingBuffer:
    def test_oldest_evicted_and_counted(self):
        tracer = Tracer(FakeClock(), capacity=3)
        for i in range(5):
            tracer.event("e", i=i)
        assert len(tracer) == 3
        assert [e.fields["i"] for e in tracer] == [2, 3, 4]
        assert tracer.dropped == 2

    def test_clear_resets(self):
        tracer = Tracer(FakeClock(), capacity=1)
        tracer.event("a")
        tracer.event("b")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(FakeClock(), capacity=0)
