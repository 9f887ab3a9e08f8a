"""The MICSS baseline: perfect sharing over reliable share transport.

MICSS (the authors' earlier protocol, GLOBECOM 2015) differs from ReMICSS
in exactly the two ways Sec. V calls out, both of which this baseline
reproduces:

* it uses a *perfect* (n, n) secret sharing scheme -- XOR pads -- so its
  only reachable configuration is κ = µ = n: every symbol's shares go out
  on every channel, and all of them are needed to reconstruct;
* its share transport is *reliable*: every share is acknowledged, and an
  unacknowledged share is retransmitted on its channel after a
  retransmission timeout.  A single lossy channel therefore stalls the
  whole pipeline (head-of-line blocking), which is the behaviour that
  motivates ReMICSS's best-effort redesign.

The baseline exists for the comparison; the paper's figures are all about
ReMICSS, but the MICSS-vs-ReMICSS ablation
(``tests/test_integration.py::TestMicssVsRemicss``) checks what the
redesign buys.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple


from repro.netsim.engine import Engine, Event
from repro.netsim.packet import Datagram
from repro.netsim.ports import ChannelPort
from repro.netsim.rng import RngRegistry
from repro.protocol.config import SOURCE_QUEUE_LIMIT
from repro.protocol.wire import HEADER_SIZE, WireFormatError, decode_share, encode_share
from repro.sharing.base import Share
from repro.sharing.xor import XorScheme

#: Size of an acknowledgement datagram in bytes (a minimal header).
ACK_SIZE = 32

#: How many symbols may be in flight (un-acked) at once.
WINDOW = 32


@dataclass
class MicssStats:
    """Counters for the MICSS baseline."""

    symbols_offered: int = 0
    source_drops: int = 0
    shares_sent: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    symbols_delivered: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _OutstandingShare:
    """A transmitted share awaiting acknowledgement."""

    __slots__ = ("seq", "share", "channel", "timer", "offered_at")

    def __init__(self, seq: int, share: Share, channel: int, offered_at: float):
        self.seq = seq
        self.share = share
        self.channel = channel
        self.timer: Optional[Event] = None
        self.offered_at = offered_at


class MicssNode:
    """One endpoint of the MICSS baseline protocol.

    Args:
        engine: the simulation engine.
        ports_out: outbound ports (shares travel out, ACKs come back in on
            the paired inbound ports).
        ports_in: inbound ports.
        symbol_size: source symbol payload size.
        rng_registry: random streams for the XOR pads.
        name: label for rng streams.

    Up to ``SOURCE_QUEUE_LIMIT`` symbols wait for transmission, up to
    :data:`WINDOW` are in flight, and each channel's retransmission
    timeout is :meth:`channel_rto`.
    """

    def __init__(
        self,
        engine: Engine,
        ports_out: Sequence[ChannelPort],
        ports_in: Sequence[ChannelPort],
        symbol_size: int,
        rng_registry: RngRegistry,
        name: str = "micss",
    ):
        self.engine = engine
        self.ports_out = list(ports_out)
        self.ports_in = list(ports_in)
        self.symbol_size = symbol_size
        self.scheme = XorScheme()
        self.rng = rng_registry.stream(f"{name}.pad")
        self.name = name
        self.stats = MicssStats()
        self._source: Deque[Tuple[int, bytes, float]] = deque()
        self._next_seq = 0
        self._outstanding: Dict[Tuple[int, int], _OutstandingShare] = {}
        self._inflight_symbols: Dict[int, int] = {}  # seq -> un-acked share count
        self._rx_table: Dict[int, Dict[int, Share]] = {}
        self._rx_done: "set[int]" = set()
        self._deliver_callbacks: List[Callable[[int, bytes, float], None]] = []
        for port in self.ports_in:
            port.on_receive(self._handle_datagram)
        for port in self.ports_out:
            port.link.watch_writable(self._pump)

    @property
    def n(self) -> int:
        return len(self.ports_out)

    def on_deliver(self, callback: Callable[[int, bytes, float], None]) -> None:
        """Register a callback ``(seq, payload, delay)`` for delivered symbols."""
        self._deliver_callbacks.append(callback)

    def channel_rto(self, channel: int) -> float:
        """The retransmission timeout used for shares on ``channel``: 4x
        the channel's (serialisation + propagation) round trip plus a
        small floor."""
        link = self.ports_out[channel].link
        share_time = (self.symbol_size + HEADER_SIZE) / link.byte_rate
        return 4.0 * (share_time + 2.0 * link.delay) + 16.0 * share_time

    # -- sending ------------------------------------------------------------------

    def send(self, payload: bytes) -> bool:
        """Offer one source symbol; False if the source queue was full."""
        self.stats.symbols_offered += 1
        if len(payload) != self.symbol_size:
            raise ValueError(f"payload must be {self.symbol_size} bytes, got {len(payload)}")
        if len(self._source) >= SOURCE_QUEUE_LIMIT:
            self.stats.source_drops += 1
            return False
        self._source.append((self._next_seq, payload, self.engine.now))
        self._next_seq += 1
        self._pump()
        return True

    def _pump(self) -> None:
        while self._source:
            if len(self._inflight_symbols) >= WINDOW:
                return
            # MICSS sends every symbol on every channel; wait until all of
            # them can take a share (reliable transport never sheds load).
            if not all(port.writable() for port in self.ports_out):
                return
            seq, payload, offered_at = self._source.popleft()
            shares = self.scheme.split(payload, self.n, self.n, self.rng)
            self._inflight_symbols[seq] = self.n
            for channel, share in enumerate(shares):
                self._transmit_share(seq, share, channel, offered_at)

    def _transmit_share(self, seq: int, share: Share, channel: int, offered_at: float) -> None:
        key = (seq, share.index)
        outstanding = self._outstanding.get(key)
        if outstanding is None:
            outstanding = _OutstandingShare(seq, share, channel, offered_at)
            self._outstanding[key] = outstanding
        packet = encode_share(seq, share, self.scheme.name)
        datagram = Datagram(
            size=len(packet),
            payload=packet,
            meta={"seq": seq, "index": share.index, "symbol_sent_at": offered_at},
        )
        sent = self.ports_out[channel].send(datagram)
        if sent:
            self.stats.shares_sent += 1
        # Whether queued or tail-dropped, the timer drives the retry loop.
        outstanding.timer = self.engine.schedule(
            self.channel_rto(channel), self._retransmit, key
        )

    def _retransmit(self, key: Tuple[int, int]) -> None:
        outstanding = self._outstanding.get(key)
        if outstanding is None:
            return  # acked in the meantime
        self.stats.retransmissions += 1
        self._transmit_share(
            outstanding.seq, outstanding.share, outstanding.channel, outstanding.offered_at
        )

    # -- receiving ------------------------------------------------------------------

    def _handle_datagram(self, datagram: Datagram) -> None:
        ack = datagram.meta.get("ack")
        if ack is not None:
            self._handle_ack(ack)
            return
        try:
            header, share = decode_share(datagram.payload)
        except WireFormatError:
            return
        # Acknowledge on the reverse direction of the same channel.
        channel = datagram.meta.get("channel", header.index - 1)
        self._send_ack(header.seq, header.index, channel)
        if header.seq in self._rx_done:
            return
        table = self._rx_table.setdefault(header.seq, {})
        table[header.index] = share
        if len(table) == header.m:
            payload = self.scheme.reconstruct(list(table.values()))
            del self._rx_table[header.seq]
            self._rx_done.add(header.seq)
            self.stats.symbols_delivered += 1
            delay = self.engine.now - datagram.meta.get("symbol_sent_at", datagram.sent_at)
            for callback in self._deliver_callbacks:
                callback(header.seq, payload, delay)

    def _send_ack(self, seq: int, index: int, channel: int) -> None:
        ack = Datagram(size=ACK_SIZE, meta={"ack": (seq, index)})
        # ACKs bypass readiness checks: if the reverse queue is full the
        # ACK is simply lost and the share will be retransmitted.
        self.ports_out[channel].send(ack)
        self.stats.acks_sent += 1

    def _handle_ack(self, ack: Tuple[int, int]) -> None:
        key = (ack[0], ack[1])
        outstanding = self._outstanding.pop(key, None)
        if outstanding is None:
            return  # duplicate ACK
        if outstanding.timer is not None:
            outstanding.timer.cancel()
        remaining = self._inflight_symbols.get(outstanding.seq)
        if remaining is not None:
            if remaining <= 1:
                del self._inflight_symbols[outstanding.seq]
                self._pump()
            else:
                self._inflight_symbols[outstanding.seq] = remaining - 1
