"""Transparent interception shim (the DIBS stand-in).

The real ReMICSS implementation inserts itself below the transport layer
using the DIBS "bump in the stack" architecture, so *any* IP traffic can be
carried without application changes.  In the simulator the equivalent role
is a framing adapter: arbitrary-length application datagrams are segmented
into fixed-size protocol symbols on the way in and reassembled on the way
out, so applications never see the symbol size.

Frame format inside the symbol stream: each application datagram becomes
``[4-byte length][data]``, and the concatenated frames are cut into
symbol bodies.  Every symbol is ``[2-byte offset][body]``, where the
offset locates the first frame that begins in the body (``0xFFFF`` when
none does), so a reader that lost a symbol resumes at the next frame
boundary.  The final body is zero-padded; a length of zero marks padding,
which the reader skips (datagrams are never empty).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.netsim.engine import Event
from repro.protocol.remicss import RemicssNode

_LENGTH = struct.Struct(">I")
_OFFSET = struct.Struct(">H")
#: Offset of a symbol in which no frame begins.
_NO_FRAME = 0xFFFF


class DibsInterceptor:
    """Carries arbitrary application datagrams over a ReMICSS node.

    Args:
        node: the protocol node to send through.
        on_datagram: callback invoked with each reassembled application
            datagram on the receive side.

    Notes:
        Symbols the sender has no room for wait in the shim and are
        offered when the sender reports room again (its room watchers),
        so the sender never refuses one.  Delivery is sensitive to symbol
        loss and reordering: symbols are re-sequenced by their protocol
        sequence number, and a gap still open one reassembly timeout
        after a later symbol arrived drops the datagrams it cut (a
        best-effort IP-like drop); reading resumes at the first frame
        that begins after it, and a symbol from before that point is
        dropped.
    """

    def __init__(
        self,
        node: RemicssNode,
        on_datagram: Optional[Callable[[bytes], None]] = None,
    ):
        self.node = node
        self.symbol_size = node.config.symbol_size
        self._body = self.symbol_size - _OFFSET.size
        if not 0 < self._body <= _NO_FRAME:
            raise ValueError(
                f"DIBS needs a symbol size of 3..{_NO_FRAME + _OFFSET.size} bytes, "
                f"got {self.symbol_size}"
            )
        self._callbacks: List[Callable[[bytes], None]] = []
        if on_datagram is not None:
            self._callbacks.append(on_datagram)
        self._outbuf = b""
        #: Offset in ``_outbuf`` of the first frame that begins in the
        #: symbol being filled; None while no frame begins in it.
        self._first_frame: Optional[int] = None
        #: Cut symbols waiting for room in the sender's source queue.
        self._unsent: Deque[bytes] = deque()
        self._expected_seq: Optional[int] = None
        self._stash: Dict[int, bytes] = {}
        #: The pending gap timeout, armed while the stash holds symbols.
        self._gap_timer: Optional[Event] = None
        #: The partial frame being reassembled; None until the reader is at
        #: a frame boundary (at the start, and after a gap).
        self._inbuf: Optional[bytes] = None
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_corrupted = 0
        node.on_deliver(self._on_symbol)
        node.sender.room_watchers.append(self._offer)

    def on_datagram(self, callback: Callable[[bytes], None]) -> None:
        """Register a receive callback for reassembled datagrams."""
        self._callbacks.append(callback)

    # -- intercept (send side) ---------------------------------------------------

    def intercept(self, datagram: bytes) -> None:
        """Accept one application datagram and push full symbols out."""
        if not datagram:
            raise ValueError("DIBS carries IP packets, which are never empty")
        self.datagrams_sent += 1
        if self._first_frame is None:
            self._first_frame = len(self._outbuf)
        self._outbuf += _LENGTH.pack(len(datagram)) + datagram
        while len(self._outbuf) >= self._body:
            self._cut(self._outbuf[: self._body])
            self._outbuf = self._outbuf[self._body :]

    def flush(self) -> None:
        """Zero-pad and send any buffered partial symbol."""
        if self._outbuf:
            self._cut(self._outbuf.ljust(self._body, b"\0"))
            self._outbuf = b""

    def _cut(self, body: bytes) -> None:
        # Every frame but the newest began before the first cut of an
        # intercept, so later cuts carry only the newest's continuation.
        first = _NO_FRAME if self._first_frame is None else self._first_frame
        self._first_frame = None
        self._unsent.append(_OFFSET.pack(first) + body)
        self._offer()

    def _offer(self) -> None:
        """Hand waiting symbols to the sender while it has room."""
        # has_room() is offer()'s own acceptance test, so no send is refused.
        while self._unsent and self.node.sender.has_room():
            self.node.send(self._unsent.popleft())

    # -- reinject (receive side) ----------------------------------------------------

    def _on_symbol(self, seq: int, payload: Optional[bytes], delay: float) -> None:
        del delay
        if payload is None:
            return  # synthetic mode carries no data to reassemble
        if self._expected_seq is None:
            self._expected_seq = seq
        if seq < self._expected_seq:
            return  # behind a gap already given up
        if seq != self._expected_seq:
            self._stash[seq] = payload
            # A badly out-of-window symbol means the gap will never fill;
            # drop the partial datagram and resync.
            if len(self._stash) > 64:
                self._resync()
            elif self._gap_timer is None:
                self._arm_gap_timer()
            return
        self._consume(payload)
        self._expected_seq += 1
        while self._expected_seq in self._stash:
            self._consume(self._stash.pop(self._expected_seq))
            self._expected_seq += 1

    def _arm_gap_timer(self) -> None:
        self._gap_timer = self.node.engine.schedule(
            self.node.config.reassembly_timeout, self._gap_timeout, max(self._stash)
        )

    def _gap_timeout(self, horizon: int) -> None:
        """Give up on every gap still open below ``horizon``, a symbol that
        has waited a whole reassembly timeout in the stash."""
        self._gap_timer = None
        while self._stash and self._expected_seq < horizon:
            self._resync()
        if self._stash:
            self._arm_gap_timer()

    def _resync(self) -> None:
        self.datagrams_corrupted += 1
        self._inbuf = None
        self._expected_seq = min(self._stash)
        while self._expected_seq in self._stash:
            self._consume(self._stash.pop(self._expected_seq))
            self._expected_seq += 1

    def _consume(self, symbol: bytes) -> None:
        (first,) = _OFFSET.unpack_from(symbol)
        body = symbol[_OFFSET.size :]
        if first == _NO_FRAME:
            if self._inbuf is not None:
                self._inbuf += body
                self._parse()
            return
        if self._inbuf is not None:
            # The bytes before the first frame end the one in progress;
            # whatever is left of it after that is padding.
            self._inbuf += body[:first]
            self._parse()
        self._inbuf = body[first:]
        self._parse()

    def _parse(self) -> None:
        while True:
            if len(self._inbuf) < _LENGTH.size:
                return
            (length,) = _LENGTH.unpack_from(self._inbuf)
            if length == 0:
                # Padding: the rest of this buffer is flush fill.
                self._inbuf = b""
                return
            end = _LENGTH.size + length
            if len(self._inbuf) < end:
                return
            datagram = self._inbuf[_LENGTH.size : end]
            self._inbuf = self._inbuf[end:]
            self.datagrams_delivered += 1
            for callback in self._callbacks:
                callback(datagram)
