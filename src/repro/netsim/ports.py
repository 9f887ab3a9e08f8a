"""Channel ports: the endpoints the protocol binds to.

A :class:`ChannelPort` wraps one direction of one channel.  The sending
side offers datagrams and exposes the link's *writable* readiness (the
epoll signal ReMICSS's dynamic scheduler keys on); the receiving side
dispatches delivered datagrams to a registered callback.
"""

from __future__ import annotations

from typing import Callable

from repro.netsim.link import Link
from repro.netsim.packet import Datagram


def _discard(datagram: Datagram) -> None:
    """The receiver of a port nobody listens on yet: drop the datagram."""


class ChannelPort:
    """One sendable/receivable channel endpoint over a :class:`Link`.

    Args:
        index: the model-level channel index (position in the ChannelSet),
            carried so protocol and model vectors line up.
        link: the underlying unidirectional link.
    """

    def __init__(self, index: int, link: Link):
        self.index = index
        self.link = link
        link.set_receiver(_discard)

    @property
    def name(self) -> str:
        return self.link.name or f"port{self.index}"

    @property
    def up(self) -> bool:
        """Whether the underlying link is up (fault injection can down it)."""
        return self.link.up

    def writable(self) -> bool:
        """Whether a send would currently be accepted (not tail-dropped).

        A downed link reports non-writable, so the dynamic scheduler's
        readiness selection routes around outages automatically.
        """
        return self.link.writable()

    @property
    def headroom(self) -> int:
        """Free queue slots; used to order candidates in the selector."""
        return self.link.queue_limit - self.link.queue_depth

    def send(self, datagram: Datagram) -> bool:
        """Offer a datagram; returns False if the link queue rejected it."""
        return self.link.send(datagram)

    def on_receive(self, callback: Callable[[Datagram], None]) -> None:
        """Register the receive callback, on the link itself (no port hop)."""
        self.link.set_receiver(callback)
