"""Structured event tracing with sim-time stamps and a bounded ring buffer.

A :class:`Tracer` records :class:`TraceEvent` point events stamped with
*simulated* time from the clock callable it is constructed with
(typically ``lambda: engine.now``).  The buffer is a ring: once
``capacity`` events have been recorded the oldest are overwritten, so
tracing a long run has bounded memory; the number of events dropped that
way is kept so exports can say so.

Nothing here reads a wall clock, so traces from seeded runs are
byte-identical across repetitions.  Tracing is off when a component's
``tracer`` is ``None``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List

#: Default ring-buffer capacity (events).
DEFAULT_CAPACITY = 65536


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    Attributes:
        time: simulated time of the record.
        kind: the record type; ``"event"`` (every trace point is a point
            event).
        name: the event name (snake_case by convention).
        fields: structured payload (JSON-friendly scalars).
    """

    time: float
    kind: str
    name: str
    fields: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        record: dict = {"time": self.time, "kind": self.kind, "name": self.name}
        if self.fields:
            record["fields"] = dict(self.fields)
        return record


class Tracer:
    """Bounded structured-event recorder.

    Args:
        clock: zero-argument callable returning current simulated time.
        capacity: ring-buffer size in events (oldest evicted first).
    """

    def __init__(self, clock: Callable[[], float], capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.clock = clock
        self.capacity = capacity
        self.dropped = 0
        self._buffer: Deque[TraceEvent] = deque()

    def event(self, name: str, **fields: object) -> None:
        """Record a point event at the current simulated time."""
        if len(self._buffer) >= self.capacity:
            self._buffer.popleft()
            self.dropped += 1
        self._buffer.append(TraceEvent(self.clock(), "event", name, fields))

    @property
    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buffer)

    def clear(self) -> None:
        """Empty the buffer and reset the dropped-event count."""
        self._buffer.clear()
        self.dropped = 0
