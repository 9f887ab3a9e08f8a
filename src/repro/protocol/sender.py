"""Send path: source queue, parameter sampling, share transmission.

The sender is a FIFO pipeline.  Source symbols wait in a bounded queue
(the socket-buffer analogue; overflow drops are how an over-offered sender
sheds load, exactly like iperf's UDP client).  For the symbol at the head:

1. parameters are sampled once (and stick while the symbol waits);
2. the sender waits until the required channels can accept a share --
   for the *dynamic* schedule, any m writable channels (the paper's
   "first m channels ready for writing" via epoll); for an *explicit*
   schedule, precisely the channels of the drawn subset M;
3. the symbol is split and one share is transmitted per chosen channel.

An optional finite CPU serialises the per-symbol work (split cost plus a
per-share cost), which is what caps throughput in the paper's Figures 6-7
once channel capacity outgrows the end system.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.netsim.engine import Engine
from repro.netsim.host import CpuModel
from repro.netsim.packet import Datagram
from repro.netsim.ports import ChannelPort
from repro.netsim.readiness import WriteSelector
from repro.netsim.rng import RandomBytes
from repro.protocol.auth import ShareAuthenticator
from repro.protocol.config import CPU_SHARE_COST, CPU_SPLIT_COST, SOURCE_QUEUE_LIMIT, ProtocolConfig
from repro.protocol.scheduler import ParameterSampler
from repro.protocol.wire import SCHEME_IDS, encode_share, share_packet_size
from repro.sharing.base import Share


@dataclass
class SenderStats:
    """Counters kept by the send path, aggregated over every flow."""

    symbols_offered: int = 0
    symbols_sent: int = 0
    source_drops: int = 0
    shares_sent: int = 0
    share_send_failures: int = 0
    #: Times the head symbol found fewer ready channels than it needed and
    #: had to wait for a writable notification (scheduler back-pressure).
    readiness_stalls: int = 0
    #: Symbols refused while admission was paused (the resilience layer's
    #: DEGRADED mode: no feasible schedule survives, so rather than leak
    #: under a weaker threshold the sender sheds load at the source).
    admission_paused_drops: int = 0
    #: Shares transmitted with a keyed MAC attached.
    auth_tagged_shares: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _PendingSymbol:
    """A source symbol waiting in the sender's queue."""

    __slots__ = ("seq", "payload", "offered_at", "k", "m", "subset", "flow")

    def __init__(self, seq: int, payload: Optional[bytes], offered_at: float, flow: int = 0):
        self.seq = seq
        self.payload = payload
        self.offered_at = offered_at
        self.flow = flow
        self.k: Optional[int] = None
        self.m: Optional[int] = None
        self.subset: Optional[FrozenSet[int]] = None

    def __repr__(self) -> str:
        # The queued plaintext must not leak through logs or debugger
        # output; describe it instead of dumping it (docs/TAINT.md).
        from repro.redact import redact_bytes

        return (
            f"_PendingSymbol(seq={self.seq}, flow={self.flow}, "
            f"payload={redact_bytes(self.payload)}, k={self.k}, m={self.m})"
        )


class ShareSender:
    """The send path of a protocol node.

    Args:
        engine: simulation engine.
        ports: outbound channel ports, in channel-index order.
        sampler: per-symbol parameter source (dynamic or explicit).
        config: protocol configuration.
        rng: random stream for share material.  The sender owns it and
            draws it only through :class:`~repro.netsim.rng.RandomBytes`
            (``_pad``), so nothing else may draw from it.  The wrapper is
            built at the first split, so a sender that never splits (a
            synthetic one, or a node that only receives) never seeds it.
        cpu: optional finite CPU serialising per-symbol work.
    """

    def __init__(
        self,
        engine: Engine,
        ports: Sequence[ChannelPort],
        sampler: ParameterSampler,
        config: ProtocolConfig,
        rng: np.random.Generator,
        cpu: Optional[CpuModel] = None,
    ):
        self.engine = engine
        self.ports = list(ports)
        self.sampler = sampler
        self.config = config
        self.rng = rng
        self._pad: Optional[RandomBytes] = None
        self.cpu = cpu
        self.selector = WriteSelector(self.ports, config.selector_ordering)
        #: Tags outbound shares when ``config.auth`` is set.
        self.authenticator: Optional[ShareAuthenticator] = (
            ShareAuthenticator(config.auth) if config.auth is not None else None
        )
        self.stats = SenderStats()
        self.shares_per_channel = [0] * len(self.ports)
        #: (flow, k, m) -> times the flow's sampler picked (k, m): the κ
        #: audit every run path reads.
        self.schedule_picks: "dict[tuple[int, int, int], int]" = {}
        #: Structured tracer attached by :mod:`repro.obs.instrument`; when
        #: set, every transmitted symbol emits a ``share_tx`` event.
        self.tracer = None
        #: When True (the resilience layer's DEGRADED mode), offered
        #: symbols are refused at the source queue instead of being sent
        #: under an infeasible schedule.
        self.admission_paused = False
        #: Optional hook ``(flow, seq, k, m, offered_at, shares)`` called
        #: after every transmitted symbol; the resilience layer uses it to
        #: fill the repair buffer.
        self.on_transmit = None
        #: Per-flow parameter samplers for multiplexed (fleet) traffic,
        #: written by :meth:`repro.fleet.mux.FlowMux.register`, so tenants
        #: with different (κ, µ) share one sender; flows without an entry
        #: use the node-level :attr:`sampler`.
        self.flow_samplers: Dict[int, ParameterSampler] = {}
        self._source: Deque[_PendingSymbol] = deque()
        #: Next sequence number per flow; every flow counts from 0.
        self._seqs: Dict[int, int] = {}
        self._cpu_busy = False
        #: Callbacks run when the sender may have room again: after it pumps
        #: on a link's writable notification, after each CPU finish and
        #: after :meth:`resample_head`.
        self.room_watchers: List[Callable[[], None]] = []
        for port in self.ports:
            port.link.watch_writable(self._resume)

    @property
    def backlog(self) -> int:
        """Symbols waiting in the source queue."""
        return len(self._source)

    def has_room(self) -> bool:
        """Whether :meth:`offer` would queue a symbol now.

        Callers that hold symbols back (the fleet mux, the DIBS shim) offer
        only while this holds and resume from :attr:`room_watchers`.
        """
        return not self.admission_paused and len(self._source) < SOURCE_QUEUE_LIMIT

    # -- ingress ----------------------------------------------------------------

    def offer(self, payload: Optional[bytes] = None, flow: int = 0) -> bool:
        """Offer one source symbol to the protocol.

        ``payload`` may be ``None`` in synthetic mode (rate benchmarks);
        otherwise it must be exactly ``config.symbol_size`` bytes.
        ``flow`` tags the symbol with a stream id (0 = the default
        single-flow stream); sequence numbers count per flow.

        Returns:
            False if the source queue was full and the symbol was dropped.
        """
        if payload is not None and len(payload) != self.config.symbol_size:
            raise ValueError(
                f"payload must be {self.config.symbol_size} bytes, got {len(payload)}"
            )
        if payload is None and not self.config.share_synthetic:
            raise ValueError("payload required unless share_synthetic is enabled")
        self.stats.symbols_offered += 1
        if self.admission_paused:
            self.stats.admission_paused_drops += 1
            return False
        if len(self._source) >= SOURCE_QUEUE_LIMIT:
            self.stats.source_drops += 1
            return False
        seq = self._seqs.get(flow, 0)
        self._seqs[flow] = seq + 1
        self._source.append(_PendingSymbol(seq, payload, self.engine.now, flow))
        self._pump()
        return True

    def resample_head(self) -> None:
        """Lift an admission pause, drop queued symbols' sticky parameters
        and re-pump.

        Sampled parameters normally stick while a symbol waits.  After a
        failover swaps the sampler, the head may be waiting on a subset
        containing a quarantined channel (a head-of-line stall that would
        only clear when the dead channel recovers); re-sampling under the
        new schedule lets it proceed over the survivors.
        """
        self.admission_paused = False
        for queued in self._source:
            queued.k = queued.m = None
            queued.subset = None
        self._resume()

    # -- the pipeline -------------------------------------------------------------

    def _resume(self) -> None:
        """Pump, then tell the room watchers."""
        self._pump()
        for watcher in self.room_watchers:
            watcher()

    def _pump(self) -> None:
        """Advance the head symbol if its channels are ready (and CPU free)."""
        if self._cpu_busy:
            return
        while self._source:
            symbol = self._source[0]
            if symbol.k is None:
                self._sample(symbol)
            chosen = self._choose_ports(symbol)
            if chosen is None:
                self.stats.readiness_stalls += 1
                return  # blocked; a writable notification will re-pump
            if self.cpu is None:
                self._source.popleft()
                self._transmit(symbol, chosen)
                continue
            # Finite CPU: serialise one symbol at a time through it.  The
            # chosen ports stay valid because nothing else fills them
            # while this sender is the only writer.
            self._source.popleft()
            self._cpu_busy = True
            cost = CPU_SPLIT_COST + symbol.m * CPU_SHARE_COST

            def finish(sym: _PendingSymbol = symbol, ports: List[ChannelPort] = chosen) -> None:
                self._transmit(sym, ports)
                self._cpu_busy = False
                self._resume()

            self.cpu.submit(cost, finish)
            return

    def _sample(self, symbol: _PendingSymbol) -> None:
        """Draw and record (k, m, M) for one queued symbol."""
        sampler = self.flow_samplers.get(symbol.flow, self.sampler)
        symbol.k, symbol.m, symbol.subset = sampler.sample()
        key = (symbol.flow, symbol.k, symbol.m)
        self.schedule_picks[key] = self.schedule_picks.get(key, 0) + 1

    def _choose_ports(self, symbol: _PendingSymbol) -> Optional[List[ChannelPort]]:
        """The ports to use for this symbol, or None if not all are ready."""
        if symbol.subset is None:
            chosen = self.selector.select(symbol.m)
            return chosen or None
        members = sorted(symbol.subset)
        ports = [self.ports[i] for i in members]
        if all(port.writable() for port in ports):
            return ports
        return None

    def _transmit(self, symbol: _PendingSymbol, chosen: List[ChannelPort]) -> None:
        if self.tracer is not None:
            self.tracer.event(
                "share_tx",
                seq=symbol.seq,
                k=symbol.k,
                m=symbol.m,
                channels=[port.index for port in chosen],
            )
        flow, seq, k, m = symbol.flow, symbol.seq, symbol.k, symbol.m
        if self.config.share_synthetic:
            shares: List[Optional[Share]] = [None] * m
        else:
            pad = self._pad
            if pad is None:
                pad = self._pad = RandomBytes(self.rng)
            shares = self.config.scheme.split(symbol.payload, k, m, pad)
        for position, port in enumerate(chosen):
            share = shares[position]
            datagram = self.frame_share(
                flow, seq, k, m, position + 1, share, symbol.offered_at, port.index
            )
            if self.authenticator is not None:
                self.stats.auth_tagged_shares += 1
            if port.send(datagram):
                self.stats.shares_sent += 1
                self.shares_per_channel[port.index] += 1
            else:  # pragma: no cover - ports were checked writable
                self.stats.share_send_failures += 1
        self.stats.symbols_sent += 1
        if self.on_transmit is not None:
            self.on_transmit(flow, seq, k, m, symbol.offered_at, shares)

    def frame_share(
        self,
        flow: int,
        seq: int,
        k: int,
        m: int,
        index: int,
        share: Optional[Share],
        offered_at: float,
        channel: int,
    ) -> Datagram:
        """The datagram carrying share ``index`` of symbol ``(flow, seq)``.

        A real share is tagged (auth armed) and encoded; a synthetic one
        (``share`` None) travels as meta only, sized like the encoded
        frame.  The resilience layer frames its repair retransmissions
        here too.
        """
        meta = {
            "seq": seq, "k": k, "m": m, "index": index,
            "symbol_sent_at": offered_at, "channel": channel,
        }
        if flow != 0:
            meta["flow"] = flow
        if share is None:
            # Synthetic configs cannot arm auth, so the frame carries no tag.
            size = share_packet_size(self.config.symbol_size, flow)
            return Datagram(size=size, meta=meta)
        scheme = self.config.scheme.name
        tag = None
        if self.authenticator is not None:
            tag = self.authenticator.tag(flow, seq, share, SCHEME_IDS[scheme])
        packet = encode_share(seq, share, scheme, flow=flow, tag=tag)
        return Datagram(size=len(packet), payload=packet, meta=meta)
