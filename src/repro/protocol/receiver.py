"""Receive path: share reassembly with timeout eviction and a memory bound.

Because ReMICSS is best-effort, shares of many symbols are in flight at
once (loss, reordering, and unequal channel rates all interleave them).
The receiver therefore keeps a reassembly table indexed by symbol sequence
number, borrowing two ideas from IP fragment reassembly (Sec. V):

* an incomplete symbol is **evicted after a timeout**, so slow shares get
  time to arrive without the table pinning memory forever;
* the table is **bounded**; when full, the oldest incomplete symbol is
  evicted to make room (new shares are never blocked by old state).

A symbol is delivered the moment any k of its shares have arrived; shares
arriving after that are counted as *late* and dropped.

Timeouts cost no engine event per symbol.  The table itself is the deadline
queue: entries sit in it in the order they opened, and since the timeout
is one nonnegative constant and the clock only moves forward, that is also
the order of their deadlines.  When an entry opens it reserves the engine
tie-break number its own timer would have taken
(:meth:`~repro.netsim.engine.Engine.reserve`), so ``(deadline, number)``
is exactly the place in the engine's ``(time, seq)`` order where that
timer would have fired.  One armed event per buffer, the *sweep*, waits at
that place for the oldest entry.  When it fires it evicts that entry if it
is still open, then re-arms at the oldest entry left; completions and
capacity evictions cost nothing, they just leave the sweep to find a
closed entry.  So every timeout eviction runs at the same simulated time,
between the same two events, as a per-entry timer's would.  When the table
empties the sweep is cancelled, so :meth:`Engine.run` still ends at the
last real event, and the next entry revives the cancelled sweep while the
engine still holds it, instead of queueing another.  A repair extension
(see docs/RESILIENCE.md) moves its entry onto a timer of its own.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

from typing import Callable, Deque, Dict, Optional, Set, Tuple

from repro.netsim.engine import Engine, Event
from repro.netsim.host import CpuModel
from repro.netsim.packet import Datagram
from repro.protocol.auth import ShareAuthenticator
from repro.protocol.config import CPU_RECONSTRUCT_COST_PER_K, CPU_SHARE_COST
from repro.protocol.wire import WireFormatError, decode_share
from repro.sharing.base import ReconstructionError, SecretSharingScheme, Share
from repro.sharing.robust import reconstruct_with_erasures, robust_reconstruct

#: How many completed sequence numbers to remember for late-share
#: classification, as a multiple of the reassembly limit.
_COMPLETED_MEMORY_FACTOR = 4


@dataclass
class ReceiverStats:
    """Counters kept by the receive path, aggregated over every flow."""

    shares_received: int = 0
    symbols_delivered: int = 0
    late_shares: int = 0
    duplicate_shares: int = 0
    evicted_symbols: int = 0
    evicted_shares: int = 0
    decode_errors: int = 0
    reconstruction_errors: int = 0
    cpu_rejected_shares: int = 0
    corrupt_shares_detected: int = 0
    #: Duplicate (flow, seq, index) arrivals whose payload disagreed with
    #: the share already held -- the signature of a tampered replay or a
    #: forgery colliding with a live slot.  The first-arrival share is
    #: kept; the mismatching copy is dropped (see docs/ADVERSARY.md).
    replayed_shares_dropped: int = 0
    #: Timeout evictions deferred by the resilience repair hook (a NACK
    #: was sent and the entry granted extra time).
    repair_extensions: int = 0
    #: Symbols delivered only thanks to at least one repair round.
    repair_recovered: int = 0
    #: Shares whose keyed MAC verified (auth armed).  Per-channel failure
    #: attribution lives on the buffer
    #: (:attr:`ReassemblyBuffer.auth_fail_by_channel`).
    auth_verified_shares: int = 0
    #: Shares dropped before reassembly because their tag failed to verify
    #: (corruption, forgery, or a cross-flow/cross-slot replant).
    auth_failed_shares: int = 0
    #: Shares dropped because auth is armed but the frame carried no tag.
    auth_missing_shares: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _Entry:
    """Reassembly state for one in-flight symbol."""

    __slots__ = (
        "seq", "k", "m", "shares", "channels", "sent_at", "deadline", "number",
        "extension_timer", "repair_rounds", "flow", "erasures", "erasure_channels",
    )

    def __init__(
        self, seq: int, k: int, m: int, sent_at: float, flow: int,
        deadline: float, number: int,
    ):
        self.seq = seq
        self.flow = flow
        self.k = k
        self.m = m
        self.shares: Dict[int, Share] = {}
        self.channels: Dict[int, int] = {}  # share index -> arrival channel
        self.sent_at = sent_at
        #: Where the sweep evicts this entry in the engine's (time, seq)
        #: order: its timeout deadline and the tie-break number reserved
        #: when it opened.
        self.deadline = deadline
        self.number = number
        #: The entry's own eviction timer once a repair extension took it
        #: off the sweep.
        self.extension_timer: Optional[Event] = None
        self.repair_rounds = 0  # NACK rounds used (resilience repair path)
        #: Share indices seen only with a failed MAC (auth armed): known-bad
        #: *positions*, fed to erasure decoding; a later verified arrival
        #: for the same index clears the erasure.
        self.erasures: Set[int] = set()
        self.erasure_channels: Dict[int, int] = {}  # erased index -> channel


class ReassemblyBuffer:
    """The receive path of a protocol node.

    Args:
        engine: simulation engine (for the clock and the timeout sweep).
        scheme: scheme used to reconstruct symbols.
        timeout: eviction timeout for incomplete symbols.
        limit: maximum number of incomplete symbols held.
        on_deliver: callback ``(flow, seq, payload, delay)`` invoked for
            every reconstructed symbol; ``payload`` is ``None`` in
            synthetic mode and ``delay`` is source-to-reconstruction
            latency.
        synthetic: when True, skip real reconstruction and deliver as soon
            as k share *headers* have arrived (rate-only benchmarks).
        cpu: optional finite CPU; when given, each share pays
            ``CPU_SHARE_COST`` and each reconstruction pays
            ``k * CPU_RECONSTRUCT_COST_PER_K`` before completing (see
            :mod:`repro.protocol.config`).
        byzantine_tolerance: corrupted shares to correct per symbol; when
            positive, completion waits for ``min(m, k + 2e)`` shares and
            decodes with :func:`repro.sharing.robust.robust_reconstruct`.
        authenticator: when set, every share's keyed MAC is verified
            *before* reassembly (docs/AUTH.md): bad-tag shares never open
            or fill an entry -- they are counted, attributed per channel,
            and recorded as *erasures* -- and completion needs only k
            verified shares, decoded through
            :func:`repro.sharing.robust.reconstruct_with_erasures` when
            Byzantine tolerance is on.  Recovery then survives up to
            ``m - k`` corrupted channels instead of ``floor((m-k)/2)``.
    """

    def __init__(
        self,
        engine: Engine,
        scheme: SecretSharingScheme,
        timeout: float,
        limit: int,
        on_deliver: Callable[[int, int, Optional[bytes], float], None],
        synthetic: bool = False,
        cpu: Optional[CpuModel] = None,
        byzantine_tolerance: int = 0,
        authenticator: Optional[ShareAuthenticator] = None,
    ):
        if not timeout >= 0:
            raise ValueError(f"timeout must be nonnegative, got {timeout}")
        self.engine = engine
        self.scheme = scheme
        self.timeout = timeout
        self.limit = limit
        self.on_deliver = on_deliver
        self.synthetic = synthetic
        self.cpu = cpu
        self.byzantine_tolerance = byzantine_tolerance
        self.authenticator = authenticator
        self.stats = ReceiverStats()
        self.corrupt_by_channel: Dict[int, int] = {}
        #: MAC-verification failures attributed per arrival channel (the
        #: resilience layer folds deltas into channel suspicion).
        self.auth_fail_by_channel: Dict[int, int] = {}
        #: Most incomplete symbols ever held at once (buffer high-water mark).
        self.max_pending = 0
        #: Optional instruments attached by :mod:`repro.obs.instrument`:
        #: source-to-reconstruction latency and buffer-occupancy histograms
        #: (sim-time; None when observability is off) and a structured
        #: tracer fed one event per timeout eviction.
        self.latency_histogram = None
        self.occupancy_histogram = None
        self.tracer = None
        #: Optional resilience hook ``(entry) -> Optional[float]`` consulted
        #: on timeout eviction: a float return grants the entry that much
        #: extra reassembly time (the hook has NACKed its missing shares);
        #: None lets the eviction proceed.  See docs/RESILIENCE.md.
        self.repair_policy: Optional[Callable[[_Entry], Optional[float]]] = None
        #: Reassembly state is keyed by (flow, seq): two tenants using the
        #: same sequence number can never share a reassembly group, so
        #: shares are never cross-delivered between flows.
        self._table: "OrderedDict[Tuple[int, int], _Entry]" = OrderedDict()
        #: (flow, seq) pairs known to be closed -- delivered, or evicted
        #: when the table was full.  Shares for them are *late*, not new.
        self._closed: Set[Tuple[int, int]] = set()
        self._closed_order: Deque[Tuple[int, int]] = deque()
        #: The armed sweep (see the module docstring): live and waiting at
        #: or before the oldest entry's deadline, or cancelled while the
        #: table is empty and kept for revival.
        self._sweep: Optional[Event] = None

    @property
    def pending(self) -> int:
        """Number of incomplete symbols currently held."""
        return len(self._table)

    def detach(self) -> None:
        """Drop the delivery callback, repair hook, CPU and sweep (run
        teardown): each leads back to this buffer, through the owning
        node, the resilience manager, the CPU's queued work or ``_evict``.
        """
        self.on_deliver = None
        self.repair_policy = None
        self.cpu = None
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None

    # -- ingress ---------------------------------------------------------------

    def handle_datagram(self, datagram: Datagram) -> None:
        """Entry point wired to every inbound channel port."""
        if self.cpu is None:
            self._process(datagram)
            return
        accepted = self.cpu.submit(CPU_SHARE_COST, lambda: self._process(datagram))
        if not accepted:
            self.stats.cpu_rejected_shares += 1

    def _process(self, datagram: Datagram) -> None:
        if self.synthetic:
            meta = datagram.meta
            seq, index, k, m = meta["seq"], meta["index"], meta["k"], meta["m"]
            flow = meta.get("flow", 0)
            share = None
        else:
            try:
                header, share = decode_share(datagram.payload)
            except WireFormatError:
                self.stats.decode_errors += 1
                return
            scheme_id, seq, index, k, m, flow, tag = header
        self.stats.shares_received += 1

        if self.authenticator is not None and not self.synthetic:
            if not self.authenticator.verify(flow, seq, share, scheme_id, tag):
                # Verify before reassembly: an unverified share never opens
                # or fills an entry (a forged-header flood must not pin
                # table slots).  If the symbol is already open, the failed
                # index becomes an erasure -- a known-bad position for the
                # decoder -- cleared again if a verified copy arrives.
                if tag is None:
                    self.stats.auth_missing_shares += 1
                else:
                    self.stats.auth_failed_shares += 1
                channel = datagram.meta.get("channel")
                if channel is not None:
                    self.auth_fail_by_channel[channel] = (
                        self.auth_fail_by_channel.get(channel, 0) + 1
                    )
                entry = self._table.get((flow, seq))
                if entry is not None and index not in entry.shares:
                    entry.erasures.add(index)
                    if channel is not None:
                        entry.erasure_channels[index] = channel
                return
            self.stats.auth_verified_shares += 1

        key = (flow, seq)
        if key in self._closed:
            self.stats.late_shares += 1
            return
        entry = self._table.get(key)
        if entry is None:
            entry = self._open_entry(flow, seq, k, m, datagram)
        if index in entry.shares:
            existing = entry.shares[index]
            if share is not None and existing is not None and existing.data != share.data:
                # Same (flow, seq, index) slot, different payload: replay
                # defense drops the newcomer and keeps the original.
                self.stats.replayed_shares_dropped += 1
            else:
                self.stats.duplicate_shares += 1
            return
        # Synthetic mode stores a placeholder; real mode stores the share.
        entry.shares[index] = share
        if index in entry.erasures:
            # A verified copy supersedes the earlier failed one: the
            # position is no longer an erasure.
            entry.erasures.discard(index)
            entry.erasure_channels.pop(index, None)
        channel = datagram.meta.get("channel")
        if channel is not None:
            entry.channels[index] = channel
        if len(entry.shares) >= self._required_shares(entry):
            self._complete(entry)

    def _required_shares(self, entry: _Entry) -> int:
        """Shares needed before reconstruction is attempted.

        Plain operation completes at k; Byzantine-tolerant operation waits
        for 2e extra shares (capped at m, beyond which no more will come).
        With auth armed every stored share is individually verified, so k
        of them suffice -- the erasure-radius payoff: up to m - k corrupted
        channels survived instead of floor((m - k) / 2).
        """
        if self.byzantine_tolerance == 0 or self.synthetic:
            return entry.k
        if self.authenticator is not None:
            return entry.k
        return min(entry.m, entry.k + 2 * self.byzantine_tolerance)

    def _open_entry(self, flow: int, seq: int, k: int, m: int, datagram: Datagram) -> _Entry:
        if len(self._table) >= self.limit:
            # Evict the oldest incomplete symbol to make room.  Unlike a
            # timeout eviction (where a later share is indistinguishable
            # from a new symbol, so the entry may be re-opened), a
            # capacity eviction is a deliberate close: remember the key so
            # stragglers count as late instead of opening a fresh entry
            # that can never complete.
            evicted_key = next(iter(self._table))
            self._drop_entry(self._unlink(evicted_key))
            self._remember_closed(evicted_key)
        sent_at = datagram.meta.get("symbol_sent_at", datagram.sent_at)
        engine = self.engine
        key = (flow, seq)
        entry = _Entry(
            seq, k, m, sent_at, flow, engine.now + self.timeout, engine.reserve()
        )
        self._table[key] = entry
        sweep = self._sweep
        if sweep is None or (sweep.cancelled and not engine.revive(sweep)):
            self._arm(key, entry)
        occupancy = len(self._table)
        if occupancy > self.max_pending:
            self.max_pending = occupancy
        if self.occupancy_histogram is not None:
            self.occupancy_histogram.observe(occupancy)
        return entry

    # -- completion and eviction -------------------------------------------------

    def _complete(self, entry: _Entry) -> None:
        self._unlink((entry.flow, entry.seq))
        self._remember_closed((entry.flow, entry.seq))
        if entry.repair_rounds > 0:
            self.stats.repair_recovered += 1

        def finish() -> None:
            if self.synthetic:
                payload: Optional[bytes] = None
            elif self.byzantine_tolerance > 0:
                try:
                    if self.authenticator is not None:
                        # Every stored share carries a verified MAC, so the
                        # failed positions are *erasures*: decode from the
                        # survivors with no residual-error search.
                        result = reconstruct_with_erasures(
                            list(entry.shares.values()), entry.erasures
                        )
                    else:
                        result = robust_reconstruct(list(entry.shares.values()))
                except ReconstructionError:
                    self.stats.reconstruction_errors += 1
                    return
                payload = result.secret
                if result.corrupted:
                    self.stats.corrupt_shares_detected += len(result.corrupted)
                    for index in result.corrupted:
                        channel = entry.channels.get(
                            index, entry.erasure_channels.get(index)
                        )
                        if channel is not None:
                            self.corrupt_by_channel[channel] = (
                                self.corrupt_by_channel.get(channel, 0) + 1
                            )
            else:
                try:
                    payload = self.scheme.reconstruct(list(entry.shares.values()))
                except ReconstructionError:
                    self.stats.reconstruction_errors += 1
                    return
            self._deliver(entry, payload)

        if self.cpu is None:
            finish()
            return
        cost = entry.k * CPU_RECONSTRUCT_COST_PER_K
        if not self.cpu.submit(cost, finish):
            # Reconstruction work rejected by a saturated CPU: symbol lost.
            self.stats.cpu_rejected_shares += 1

    def _deliver(self, entry: _Entry, payload: Optional[bytes]) -> None:
        self.stats.symbols_delivered += 1
        delay = self.engine.now - entry.sent_at if entry.sent_at >= 0 else 0.0
        if self.latency_histogram is not None:
            self.latency_histogram.observe(delay)
        self.on_deliver(entry.flow, entry.seq, payload, delay)

    def _remember_closed(self, key: Tuple[int, int]) -> None:
        self._closed.add(key)
        self._closed_order.append(key)
        max_remembered = self.limit * _COMPLETED_MEMORY_FACTOR
        while len(self._closed_order) > max_remembered:
            self._closed.discard(self._closed_order.popleft())

    def _unlink(self, key: Tuple[int, int]) -> _Entry:
        """Take ``key``'s entry out of the table; nothing will evict it now."""
        entry = self._table.pop(key)
        if entry.extension_timer is not None:
            entry.extension_timer.cancel()
        if not self._table and self._sweep is not None:
            # Nothing left to time out: stop the sweep, so the engine goes
            # idle at the last real event.  Kept for :meth:`_open_entry`.
            self._sweep.cancel()
        return entry

    def _arm(self, key: Tuple[int, int], entry: _Entry) -> None:
        """Queue the sweep at ``entry``'s own place in the engine's order."""
        self._sweep = self.engine.schedule_at(
            entry.deadline, self._evict, key, entry.number, seq=entry.number
        )

    def _evict(self, key: Tuple[int, int], number: Optional[int]) -> None:
        """Timeout handler: the sweep, or a repair extension's own timer.

        The sweep (``number`` set) was armed for the entry that opened
        under ``key`` with that reserved number; if it is still open, it
        has timed out.  The sweep then re-arms at the oldest entry left
        that is not on an extension timer.  An extension timer (``number``
        None) fires only for an open entry: closing it cancels the timer.
        """
        entry = self._table.get(key)
        if number is None:
            self._expire(key, entry)
            return
        self._sweep = None  # dispatched: never revive or re-queue it
        if entry is not None and entry.number == number:
            self._expire(key, entry)
        for next_key, oldest in self._table.items():
            if oldest.extension_timer is None:
                self._arm(next_key, oldest)
                return

    def _expire(self, key: Tuple[int, int], entry: _Entry) -> None:
        if self.repair_policy is not None:
            extension = self.repair_policy(entry)
            if extension is not None:
                # The repair hook NACKed the missing shares; keep the
                # entry alive long enough for the retransmission.
                self.stats.repair_extensions += 1
                entry.extension_timer = self.engine.schedule(
                    extension, self._evict, key, None
                )
                return
        self._unlink(key)
        if self.tracer is not None:
            self.tracer.event(
                "reassembly_evict", seq=entry.seq, shares=len(entry.shares), k=entry.k
            )
        self._drop_entry(entry)

    def _drop_entry(self, entry: _Entry) -> None:
        self.stats.evicted_symbols += 1
        self.stats.evicted_shares += len(entry.shares)
