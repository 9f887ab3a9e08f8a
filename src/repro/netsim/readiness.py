"""Write-readiness selection: the simulator's stand-in for epoll.

ReMICSS avoids computing an explicit share schedule by choosing, for each
symbol, "the first m channels which are ready for writing" (Sec. V).  The
selector implements that choice over simulated ports.  Two orderings are
provided:

* ``headroom`` (default) -- ready ports sorted by free queue space, most
  first.  This is what a busy epoll loop effectively sees: the channels
  that drain fastest re-arm first and so come back ready first, steering
  load toward faster channels in proportion to their rates.
* ``fixed`` -- ready ports in fixed fd order, the naive epoll iteration.
  Kept for ablations.  It does not reproduce the κ=3, µ=3.8 loss spike
  the paper reports in Fig. 5: there its loss stays within two points of
  the optimum, as ``headroom``'s does (:mod:`repro.experiments.fig5`).

Ports whose link is down (see :mod:`repro.netsim.faults`) report
non-writable and are therefore excluded from selection; when a link comes
back up its writable watcher fires and blocked senders resume, which is
how ReMICSS survives flaps and partitions without any retransmission
machinery.

Like epoll's edge-triggered wait, the selector counts writable edges
instead of polling every port on every wake-up.  Only an edge (a queue
going full -> not-full, or a link coming up) or a new exclusion mask can
add a ready port; sends and outages only remove them.  So after a scan
finds r < m ports ready, the selector knows at most r + (edges since) are
ready, and it runs the next full scan only once that many could suffice.
A skipped scan is always one that would have come up short.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence

from repro.netsim.ports import ChannelPort


class WriteSelector:
    """Selects ready-to-write ports for the dynamic share schedule.

    The selector watches every port's link for writable edges, so build it
    before registering a watcher that calls :meth:`select` on those links:
    watchers fire in registration order, and the edge must be counted
    before a waiter acts on it.

    Args:
        ports: all channel ports, in channel-index order.
        ordering: "headroom" or "fixed" (see module docstring).
    """

    ORDERINGS = ("headroom", "fixed")

    def __init__(self, ports: Sequence[ChannelPort], ordering: str = "headroom"):
        if ordering not in self.ORDERINGS:
            raise ValueError(f"unknown ordering {ordering!r}; expected one of {self.ORDERINGS}")
        self.ports = list(ports)
        self.ordering = ordering
        #: Channel indices excluded from selection regardless of their
        #: writability -- the resilience layer's quarantine mask.  A
        #: quarantined link may look writable (its queue was flushed when
        #: it went down, or its loss is what got it quarantined), so
        #: readiness alone cannot express the exclusion.
        self.excluded: FrozenSet[int] = frozenset()
        #: Upper bound on how many ports are ready: a short scan sets it to
        #: what it found and every writable edge adds one; with nothing
        #: known it is every port.
        self._ready_bound = len(self.ports)
        for port in self.ports:
            port.link.watch_writable(self._on_writable)

    def _on_writable(self) -> None:
        """A writable edge: one more port may be ready."""
        self._ready_bound += 1

    def set_excluded(self, indices: Iterable[int]) -> None:
        """Replace the excluded-channel mask."""
        self.excluded = frozenset(indices)
        self._ready_bound = len(self.ports)  # unmasking can add ready ports

    def ready(self) -> List[ChannelPort]:
        """All currently writable, non-excluded ports, in the configured order."""
        excluded = self.excluded
        ranked = []
        for port in self.ports:
            if port.index not in excluded:
                free = port.link.headroom()  # > 0 exactly when writable
                if free > 0:
                    ranked.append((-free, port.index, port))
        if self.ordering == "headroom":
            ranked.sort()  # channel indices are unique: ports never compared
        return [entry[2] for entry in ranked]

    def select(self, count: int) -> List[ChannelPort]:
        """The first ``count`` ready ports, or an empty list if fewer are ready.

        Matching the protocol's semantics: a symbol needing m channels
        waits (is not partially sent) until m distinct channels are ready.
        Until enough writable edges have arrived since the last short scan
        for ``count`` ports to be ready, it answers ``[]`` without scanning.
        """
        if self._ready_bound < count:
            return []
        ready = self.ready()
        if len(ready) < count:
            self._ready_bound = len(ready)
            return []
        self._ready_bound = len(self.ports)
        return ready[:count]
