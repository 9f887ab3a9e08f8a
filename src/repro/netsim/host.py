"""End-system CPU model.

The paper's high-bandwidth experiments (Figures 6-7) push the testbed until
"the bottleneck becomes something other than the capacity of the channels"
-- the end systems themselves.  This module models that bottleneck: a host
CPU is a serial resource through which per-share work items (splitting,
sending, receiving, reconstructing) are queued, each with a configurable
cost in CPU time.

A component built without a CPU (``cpu=None``) does its work at once and
adds no delay, which is the regime of Figures 3-5 (the testbed CPUs are
far from saturated at 100 Mbps-class rates).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.netsim.engine import Engine


class CpuModel:
    """A serial work queue with a fixed processing capacity.

    Args:
        engine: the simulation engine.
        capacity: work units the CPU retires per unit time (positive).
        queue_limit: bound on queued work items; submissions beyond it are
            rejected (modelling socket-buffer backpressure at a saturated
            sender).  ``None`` means unbounded.

    Work is submitted as ``submit(cost, fn)``; ``fn`` runs when the CPU has
    spent ``cost / capacity`` time units on it, in submission order.
    """

    def __init__(
        self,
        engine: Engine,
        capacity: float,
        queue_limit: Optional[int] = None,
    ):
        if not capacity > 0:  # NaN fails too
            raise ValueError(f"capacity must be positive, got {capacity}")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue_limit must be positive or None, got {queue_limit}")
        self.engine = engine
        self.capacity = capacity
        self.queue_limit = queue_limit
        self._queue: Deque[Tuple[float, Callable[[], None]]] = deque()
        self._busy = False
        self.completed = 0
        self.rejected = 0
        self.busy_time = 0.0

    @property
    def backlog(self) -> int:
        """Queued (not yet started) work items."""
        return len(self._queue)

    def saturated(self) -> bool:
        """Whether the CPU currently has work queued behind the running item."""
        return self._busy and bool(self._queue)

    def submit(self, cost: float, fn: Callable[[], None]) -> bool:
        """Queue a work item costing ``cost`` units; returns False if rejected."""
        if not cost >= 0:  # NaN fails too
            raise ValueError(f"cost must be nonnegative, got {cost}")
        if self.queue_limit is not None and len(self._queue) >= self.queue_limit:
            self.rejected += 1
            return False
        self._queue.append((cost, fn))
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        cost, fn = self._queue.popleft()
        duration = cost / self.capacity
        self.busy_time += duration
        self.engine.schedule(duration, self._finish, fn)

    def _finish(self, fn: Callable[[], None]) -> None:
        fn()
        self.completed += 1
        self._start_next()
