"""Unidirectional links: rate shaping, loss and delay emulation.

Each link mimics one direction of one testbed channel:

* **serialisation** at a configured byte rate -- the Hierarchical Token
  Bucket rate limit of the paper's setup (a dedicated, work-conserving
  shaped wire is equivalent to a fixed-rate serialiser with a queue);
* a **bounded FIFO queue** with tail drop -- the qdisc buffer; its
  occupancy also drives the *writable* readiness signal used by the
  dynamic share schedule;
* **Bernoulli loss** applied after serialisation -- netem's iid loss (the
  adversary may still have observed a lost share, which is why observation
  is accounted where the share is *sent*, not where it arrives);
* **fixed propagation delay** added before delivery -- netem's delay.

Links also carry an **up/down state machine** and **safe runtime setters**
(:meth:`Link.set_rate`, :meth:`Link.set_loss`, ...) so the fault-injection
layer (:mod:`repro.netsim.faults`) can model outages, flaps and mid-run
parameter changes.  A downed link drops its queue and everything in flight,
reports non-writable (the dynamic scheduler routes around it), and notifies
writable watchers exactly once when it comes back up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from typing import Callable, Deque, Optional

import numpy as np

from repro.netsim.engine import Engine
from repro.netsim.packet import Datagram

#: Default queue capacity, in packets (mirrors a typical small txqueuelen;
#: keeping it modest makes readiness feedback responsive, which is what the
#: dynamic share schedule relies on).
DEFAULT_QUEUE_LIMIT = 16


@dataclass
class LinkStats:
    """Counters kept by each link."""

    offered: int = 0  # send() calls
    queue_drops: int = 0  # rejected by a full queue
    serialized: int = 0  # finished serialisation onto the wire
    loss_drops: int = 0  # dropped by the loss process (iid or burst model)
    delivered: int = 0  # handed to the receiver callback
    bytes_offered: int = 0
    bytes_delivered: int = 0
    down_drops: int = 0  # dropped before the wire: sends while down, queue flush, aborted serialisation
    down_losses: int = 0  # dropped off the wire: in flight when the link went down
    downs: int = 0  # up -> down transitions
    ups: int = 0  # down -> up transitions


class LossModel:
    """Interface of pluggable per-packet loss processes (duck-typed).

    :meth:`sample` is consulted once per serialised packet *instead of* the
    link's iid Bernoulli draw; the link passes its own random stream so
    determinism still flows from the experiment's root seed.  See
    :class:`repro.netsim.faults.GilbertElliott` for the canonical burst
    model.
    """

    def sample(self, rng: np.random.Generator) -> bool:
        """Return True if the packet should be dropped."""
        raise NotImplementedError


class Link:
    """A unidirectional shaped, lossy, delaying link.

    Args:
        engine: the simulation engine.
        byte_rate: serialisation rate in bytes per unit time (> 0).
        loss: iid probability that a serialised packet is dropped.
        delay: propagation delay added to every surviving packet.
        rng: random stream for the loss and jitter draws.
        queue_limit: queue capacity in packets; a send() arriving with the
            queue full is tail-dropped.
        name: label used in traces.

    A link starts with no jitter; :meth:`set_jitter` turns it on.
    """

    def __init__(
        self,
        engine: Engine,
        byte_rate: float,
        loss: float,
        delay: float,
        rng: np.random.Generator,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        name: str = "",
    ):
        if byte_rate <= 0:
            raise ValueError(f"byte_rate must be positive, got {byte_rate}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be at least 1, got {queue_limit}")
        self.engine = engine
        self.byte_rate = byte_rate
        self.loss = loss
        self.delay = delay
        self.jitter = 0.0
        self.rng = rng
        self.queue_limit = queue_limit
        self.name = name
        self.stats = LinkStats()
        self.up = True
        self.loss_model: Optional["LossModel"] = None
        self._queue: Deque[Datagram] = deque()
        self._busy = False
        #: Bumped on every down transition; packets tagged with an older
        #: epoch were on the wire when it was cut and never arrive.
        self._epoch = 0
        self._receiver: Optional[Callable[[Datagram], None]] = None
        self._writable_watchers: "list[Callable[[], None]]" = []
        self._transmit_watchers: "list[Callable[[Datagram], None]]" = []
        #: On-path adversary hook consulted on every delivery, right before
        #: the receiver callback.  It may pass the datagram through
        #: unchanged, substitute a mutated copy, or return None to swallow
        #: it (e.g. to hold it for delayed, reordered re-injection via
        #: :meth:`inject`).  Installed by
        #: :class:`repro.adversary.active.engine.AttackInjector`.
        self.attack_tap: Optional[Callable[[Datagram], Optional[Datagram]]] = None

    def set_receiver(self, callback: Callable[[Datagram], None]) -> None:
        """Register the delivery callback (the far end's receive path)."""
        self._receiver = callback

    def watch_writable(self, callback: Callable[[], None]) -> None:
        """Register a callback fired when the queue stops being full.

        This is the level-triggered-to-edge-triggered bridge the sender's
        epoll-like wait loop needs: it only fires on the full -> not-full
        transition, i.e. exactly when a blocked sender may make progress.
        """
        self._writable_watchers.append(callback)

    def watch_transmit(self, callback: Callable[[Datagram], None]) -> None:
        """Register a wire tap, fired for every packet put on the wire.

        Taps fire at serialisation time, *before* the loss draw: the
        paper's threat model observes shares "as they are being sent", so
        an adversary may capture a share that the receiver never gets.
        """
        self._transmit_watchers.append(callback)

    def detach(self) -> None:
        """Drop every registered callback (run teardown).

        The receiver, writable watchers, wire taps and attack tap are bound
        methods of objects that hold this link, so a finished network is a
        reference cycle until they go.
        """
        self._receiver = None
        self._writable_watchers.clear()
        self._transmit_watchers.clear()
        self.attack_tap = None

    # -- sending --------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Packets queued, *excluding* the one currently serialising."""
        return len(self._queue)

    def writable(self) -> bool:
        """Whether a send() right now would be accepted (epoll's EPOLLOUT).

        A downed link is never writable, which is exactly how the dynamic
        share schedule routes around an outage.
        """
        return self.up and len(self._queue) < self.queue_limit

    def headroom(self) -> int:
        """Free queue slots, or 0 while down: ``headroom() > 0`` is :meth:`writable`."""
        return self.queue_limit - len(self._queue) if self.up else 0

    def send(self, datagram: Datagram) -> bool:
        """Offer a datagram to the link.

        Returns:
            True if queued (or immediately serialising); False if the link
            was down or the queue was full and the datagram was dropped.
        """
        self.stats.offered += 1
        self.stats.bytes_offered += datagram.size
        if not self.up:
            self.stats.down_drops += 1
            return False
        if len(self._queue) >= self.queue_limit:
            self.stats.queue_drops += 1
            return False
        if datagram.sent_at < 0:
            datagram.sent_at = self.engine.now
        self._queue.append(datagram)
        if not self._busy:
            # Kicked from idle: no external full -> writable transition can
            # have happened, so watchers are not notified.
            self._start_next(notify=False)
        return True

    # -- fault control: up/down and runtime parameter mutation -----------------

    def link_down(self) -> None:
        """Take the link down: flush the queue and cut everything in flight.

        Idempotent.  Queued packets and the one mid-serialisation are
        counted as ``down_drops``; packets already on the wire are counted
        as ``down_losses`` when their (now doomed) delivery time arrives.
        """
        if not self.up:
            return
        self.up = False
        self.stats.downs += 1
        self._epoch += 1
        self.stats.down_drops += len(self._queue)
        self._queue.clear()

    def link_up(self) -> None:
        """Bring the link back up and wake any blocked senders.

        Idempotent.  Notifies writable watchers exactly once per down -> up
        transition (the queue is empty after an outage, so the link is
        always writable at this point).
        """
        if self.up:
            return
        self.up = True
        self.stats.ups += 1
        for watcher in self._writable_watchers:
            watcher()

    def set_rate(self, byte_rate: float) -> None:
        """Change the serialisation rate; applies from the next packet."""
        if byte_rate <= 0:
            raise ValueError(f"byte_rate must be positive, got {byte_rate}")
        self.byte_rate = byte_rate

    def set_loss(self, loss: float) -> None:
        """Change the iid loss probability (ignored while a loss model is set)."""
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.loss = loss

    def set_delay(self, delay: float) -> None:
        """Change the propagation delay; applies to packets not yet on the wire."""
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        self.delay = delay

    def set_jitter(self, jitter: float) -> None:
        """Change the delay jitter half-width.

        netem-style delay variation: each packet's propagation delay is
        drawn uniformly from [delay - jitter, delay + jitter] (clamped at
        zero).  Jitter can reorder packets, exactly as netem does; the
        protocol's reassembly buffer absorbs this.
        """
        if jitter < 0:
            raise ValueError(f"jitter must be nonnegative, got {jitter}")
        self.jitter = jitter

    def set_loss_model(self, model: Optional[LossModel]) -> None:
        """Install (or with None remove) a pluggable loss process.

        While installed it replaces the iid Bernoulli draw entirely; the
        configured ``loss`` attribute is untouched and resumes when the
        model is removed.
        """
        self.loss_model = model

    # -- internal pipeline -----------------------------------------------------

    def _start_next(self, notify: bool = True) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        was_full = len(self._queue) >= self.queue_limit
        datagram = self._queue.popleft()
        self.engine.schedule_at(
            self.engine.now + datagram.size / self.byte_rate,
            self._finish_serialisation, datagram, self._epoch,
        )
        if notify and was_full:
            for watcher in self._writable_watchers:
                watcher()

    def _finish_serialisation(self, datagram: Datagram, epoch: int) -> None:
        if epoch != self._epoch or not self.up:
            # The link went down while this packet was serialising: it never
            # made it onto the wire (no tap fires, no adversary observation).
            self.stats.down_drops += 1
            self._start_next()
            return
        self.stats.serialized += 1
        for tap in self._transmit_watchers:
            tap(datagram)
        if self.loss_model is not None:
            lost = self.loss_model.sample(self.rng)
        else:
            lost = self.loss > 0.0 and self.rng.random() < self.loss
        if lost:
            self.stats.loss_drops += 1
        else:
            delay = self.delay
            if self.jitter > 0.0:
                delay = max(0.0, delay + self.rng.uniform(-self.jitter, self.jitter))
            self.engine.schedule_at(self.engine.now + delay, self._deliver, datagram, epoch)
        self._start_next()

    def _deliver(self, datagram: Datagram, epoch: int) -> None:
        if epoch != self._epoch:
            # The wire was cut while this packet was propagating.
            self.stats.down_losses += 1
            return
        self.stats.delivered += 1
        self.stats.bytes_delivered += datagram.size
        if self.attack_tap is not None:
            tapped = self.attack_tap(datagram)
            if tapped is None:
                return
            datagram = tapped
        if self._receiver is not None:
            self._receiver(datagram)

    def inject(self, datagram: Datagram) -> bool:
        """Hand a datagram straight to the receiver, bypassing the pipeline.

        The active adversary's write primitive: forged, replayed and
        released-after-hold packets enter here -- no queue, no loss draw,
        no attack tap (the adversary does not attack its own traffic).
        Fails (returns False) when the link is down or unwired: even an
        on-path adversary cannot deliver over a cut wire.
        """
        if not self.up or self._receiver is None:
            return False
        self._receiver(datagram)
        return True


class DuplexChannel:
    """A bidirectional channel: two independent links with shared shaping.

    The paper's testbed applies rate, loss and delay *in each direction*;
    the echo (delay) experiment depends on both directions being shaped.
    """

    def __init__(
        self,
        engine: Engine,
        byte_rate: float,
        loss: float,
        delay: float,
        forward_rng: np.random.Generator,
        reverse_rng: np.random.Generator,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        name: str = "",
    ):
        self.name = name
        self.forward = Link(
            engine, byte_rate, loss, delay, forward_rng, queue_limit, name=f"{name}:fwd"
        )
        self.reverse = Link(
            engine, byte_rate, loss, delay, reverse_rng, queue_limit, name=f"{name}:rev"
        )

    @property
    def links(self) -> "tuple[Link, Link]":
        """Both directions, forward first (fault injection iterates these)."""
        return (self.forward, self.reverse)

    @property
    def up(self) -> bool:
        """True when both directions are up."""
        return self.forward.up and self.reverse.up
