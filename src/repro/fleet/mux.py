"""Deficit-round-robin multiplexing of fleet flows onto one sender.

One :class:`~repro.protocol.sender.ShareSender` carries every flow of a
cell; the mux sits in front of its source queue and decides *whose*
symbol goes next.  Classic deficit round robin (Shreedhar & Varghese):
each registered flow keeps a FIFO of pending payloads and a deficit
counter; a round visits the active flows in arrival order, grants each
``quantum * weight`` credit, and drains whole symbols while credit and
sender space last.  Weights come from tenant policy, so a weight-2
tenant's flow drains twice the symbols per round of a weight-1 flow when
both are backlogged -- *fairness is enforced here*, before the sender,
while privacy (each flow's own (κ, µ) sampler, registered in
:attr:`~repro.protocol.sender.ShareSender.flow_samplers`) is enforced
below, per symbol.

Back-pressure is event-driven and deterministic: the mux stops when the
sender's source queue fills and resumes from the same flow when the
sender reports room again (its room watchers, which run after it pumps
on a link-writable notification).  While the sender has room the mux
hands symbols straight through, so an uncontended flow sees no added
queueing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.protocol.scheduler import ParameterSampler
from repro.protocol.sender import ShareSender

__all__ = ["FlowMux", "FlowMuxStats"]

#: Per-flow counter fields tracked inside :class:`FlowMuxStats.flows`.
FLOW_MUX_FIELDS = ("enqueued", "offered", "dropped")


@dataclass
class FlowMuxStats:
    """Counters kept by the multiplexer."""

    #: DRR visits (one credit grant each).
    rounds: int = 0
    enqueued: int = 0
    offered: int = 0
    #: Payloads refused because the flow's own queue was full.
    dropped: int = 0
    #: ``sender.offer`` returned False despite a space check (admission
    #: paused between check and offer; the payload is shed).
    offer_failures: int = 0
    #: Per-flow counters, keyed by flow id (see FLOW_MUX_FIELDS).
    flows: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def count(self, flow: int, name: str, delta: int = 1) -> None:
        setattr(self, name, getattr(self, name) + delta)
        block = self.flows.get(flow)
        if block is None:
            block = {field_name: 0 for field_name in FLOW_MUX_FIELDS}
            self.flows[flow] = block
        block[name] += delta


class FlowMux:
    """Fair multiplexer in front of one sender's source queue.

    Args:
        sender: the shared send path.  The mux is one of its room
            watchers, so it resumes exactly when the sender can take
            symbols again.
        quantum: credit (in symbols) granted per DRR visit to a flow of
            weight 1.  Must be positive; fractional quanta are fine --
            credit accumulates across rounds.
        queue_limit: per-flow pending-payload bound; enqueues beyond it
            are dropped (and counted per flow).
    """

    def __init__(self, sender: ShareSender, quantum: float = 1.0, queue_limit: int = 64):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be at least 1, got {queue_limit}")
        self.sender = sender
        self.quantum = quantum
        self.queue_limit = queue_limit
        self.stats = FlowMuxStats()
        self._queues: Dict[int, Deque[Optional[bytes]]] = {}
        self._weights: Dict[int, float] = {}
        self._deficits: Dict[int, float] = {}
        #: Flows with pending payloads, in DRR visiting order.
        self._active: Deque[int] = deque()
        #: True while the head flow's turn is underway: it has been
        #: credited and must not be credited again when a pump resumes
        #: after sender back-pressure interrupted its turn.
        self._turn_open = False
        self._pumping = False
        sender.room_watchers.append(self.pump)

    def register(
        self,
        flow: int,
        weight: float = 1.0,
        sampler: Optional[ParameterSampler] = None,
    ) -> None:
        """Add one flow to the mux (idempotence is an error).

        Args:
            flow: nonzero wire flow id.
            weight: DRR weight (typically the owning tenant's).
            sampler: when given, registered as the flow's parameter
                sampler on the underlying sender.
        """
        if flow < 1:
            raise ValueError(f"flow ids start at 1, got {flow}")
        if flow in self._queues:
            raise ValueError(f"flow {flow} already registered")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._queues[flow] = deque()
        self._weights[flow] = weight
        self._deficits[flow] = 0.0
        if sampler is not None:
            self.sender.flow_samplers[flow] = sampler

    @property
    def backlog(self) -> int:
        """Payloads pending across every flow queue (excludes the sender's)."""
        return sum(len(queue) for queue in self._queues.values())

    # Per-tenant plaintext enters the fleet here (docs/TAINT.md).
    def enqueue(self, flow: int, payload: Optional[bytes] = None) -> bool:  # taint: source=payload
        """Queue one payload on ``flow``; False if the flow queue was full."""
        queue = self._queues.get(flow)
        if queue is None:
            raise KeyError(f"flow {flow} is not registered")
        if len(queue) >= self.queue_limit:
            self.stats.count(flow, "dropped")
            return False
        was_empty = not queue
        queue.append(payload)
        self.stats.count(flow, "enqueued")
        if was_empty:
            self._active.append(flow)
        self.pump()
        return True

    def pump(self) -> None:
        """Drain flow queues into the sender while it has room."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._active and self.sender.has_room():
                flow = self._active[0]
                queue = self._queues[flow]
                if not self._turn_open:
                    # Credit once per turn -- NOT once per pump, or a flow
                    # interrupted by sender back-pressure would be
                    # re-credited on every resume and monopolize the head.
                    self._deficits[flow] += self.quantum * self._weights[flow]
                    self.stats.rounds += 1
                    self._turn_open = True
                while queue and self._deficits[flow] >= 1.0 and self.sender.has_room():
                    payload = queue.popleft()
                    self._deficits[flow] -= 1.0
                    self.stats.count(flow, "offered")
                    if not self.sender.offer(payload, flow=flow):
                        self.stats.offer_failures += 1
                if not queue:
                    # Standard DRR: an emptied flow forfeits leftover credit.
                    self._deficits[flow] = 0.0
                    self._active.popleft()
                    self._turn_open = False
                elif self._deficits[flow] < 1.0:
                    self._active.rotate(-1)  # credit spent; next flow's turn
                    self._turn_open = False
                else:
                    return  # sender full mid-turn; its room watchers resume it
        finally:
            self._pumping = False
