"""Deterministic discrete-event engine.

A minimal but complete event loop: callbacks are scheduled at absolute or
relative simulated times, executed in time order, with ties broken by
scheduling order (a monotonically increasing sequence number), which makes
every simulation run exactly reproducible.

A caller that knows *now* when something may have to happen, but would
rather not queue it yet, can :meth:`Engine.reserve` the tie-break number
and later queue the event under it (``schedule_at(..., seq=number)``):
the event then runs exactly where one scheduled at the reservation would
have run.  The reassembly buffer's deadline sweep is built on this.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback; hold onto it to :meth:`cancel` it later."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[..., None], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (safe after it already ran)."""
        self.cancelled = True


class Engine:
    """The simulation clock and event queue.

    The clock only moves forward, driven by :meth:`run_until` / :meth:`run`.
    Callbacks may schedule further events freely, including at the current
    time (they run after all earlier-scheduled same-time events).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: Heap of ``(time, seq, event)``: ``seq`` is unique, so heapq orders
        #: entries with native tuple comparisons and never compares Events.
        self._queue: List[Tuple[float, int, Event]] = []
        self._processed = 0
        #: Time of the last cancelled entry dispatch dropped from the heap.
        self._dropped = 0.0
        self._dispatch_hook: Optional[Callable[[Event, int], None]] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for engine benchmarks)."""
        return self._processed

    def set_dispatch_hook(self, hook: Optional[Callable[[Event, int], None]]) -> None:
        """Install (or with None remove) a per-dispatch observer.

        ``hook(event, queue_depth)`` is called immediately before each
        event's callback runs, with the number of heap entries still queued
        (cancelled ones included).  It may replace ``event.callback``; the
        engine runs the attribute as the hook leaves it.  The observability
        layer uses this for per-handler dispatch counts and queue-depth
        gauges; an uninstrumented engine pays only one ``None`` check per
        event.  The hook must not mutate the queue.
        """
        self._dispatch_hook = hook

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any, seq: Optional[int] = None
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        The event takes the next tie-break number, or ``seq``: a number
        taken earlier with :meth:`reserve` (each one used at most once).

        Raises:
            ValueError: if ``time`` is in the simulated past or NaN.
        """
        if not time >= self._now:
            raise ValueError(f"cannot schedule at {time} before now={self._now}")
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heappush(self._queue, (time, seq, event))
        return event

    def reserve(self) -> int:
        """Take the tie-break number the next :meth:`schedule_at` would use.

        Nothing is queued.  ``schedule_at(time, ..., seq=number)`` later
        queues an event that runs exactly where one scheduled for ``time``
        at the reservation would have run.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def revive(self, event: Event) -> bool:
        """Undo ``event.cancel()`` if the queue still holds the event.

        Dispatch drops a cancelled event once the clock reaches it (and
        :meth:`run` drops every one left after the last live event), and a
        dropped event is gone for good: then this returns False, and the
        caller must schedule afresh.
        """
        if event.time > self._now and event.time > self._dropped:
            event.cancelled = False
            return True
        return False

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` units of time.

        Raises:
            ValueError: if ``delay`` is negative or NaN.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def run_until(self, end_time: float) -> None:
        """Run all events with ``time <= end_time``, then set now to it.

        Raises:
            ValueError: if ``end_time`` is in the simulated past or NaN.
        """
        if not end_time >= self._now:
            raise ValueError(f"cannot run backwards to {end_time} from {self._now}")
        self._dispatch(end_time)
        self._now = end_time

    def run(self) -> None:
        """Run until the event queue is empty."""
        self._dispatch(float("inf"))

    def _dispatch(self, end_time: float) -> None:
        """Pop and run every live event with ``time <= end_time``, in order."""
        queue = self._queue
        while queue and queue[0][0] <= end_time:
            time, _seq, event = heappop(queue)
            if event.cancelled:
                self._dropped = time
                continue
            self._now = time
            self._processed += 1
            if self._dispatch_hook is not None:
                self._dispatch_hook(event, len(queue))
            event.callback(*event.args)

    def clear(self) -> None:
        """Drop every queued event (run teardown; the engine runs no more)."""
        self._queue.clear()

    def pending(self) -> int:
        """Number of not-yet-run, not-cancelled events (an exact count)."""
        return sum(1 for _time, _seq, event in self._queue if not event.cancelled)
