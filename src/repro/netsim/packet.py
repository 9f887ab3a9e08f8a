"""Datagrams carried by the simulated links.

A datagram may carry a real byte payload (protocol correctness paths --
shares that actually get reconstructed) or only a *size* (pure rate
benchmarks that don't need the bytes).  Links account in bytes either way.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class Datagram:
    """One simulated datagram.

    Every share frame is one, so the class keeps no per-instance
    ``__dict__`` and checks its fields in one ``__init__``.  Datagrams
    compare equal when their fields are equal.

    Attributes:
        size: total size in bytes as seen by the link (headers included).
        payload: optional real bytes (``len(payload) <= size``; the
            difference models header overhead already folded into size).
        sent_at: simulated time the datagram entered the first link; set by
            the sending port, used for delay accounting.
        meta: free-form per-packet annotations (symbol seq, share index...);
            a fresh dict unless one is given.
    """

    __slots__ = ("size", "payload", "sent_at", "meta")

    def __init__(
        self,
        size: int,
        payload: Optional[bytes] = None,
        sent_at: float = -1.0,
        meta: Optional[Dict[str, Any]] = None,
    ):
        if size <= 0:
            raise ValueError(f"datagram size must be positive, got {size}")
        if payload is not None and len(payload) > size:
            raise ValueError(f"payload of {len(payload)} bytes exceeds datagram size {size}")
        self.size = size
        self.payload = payload
        self.sent_at = sent_at
        self.meta: Dict[str, Any] = {} if meta is None else meta

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.size, self.payload, self.sent_at, self.meta) == (
            other.size, other.payload, other.sent_at, other.meta,
        )

    # Mutable and compared by value, so not hashable.
    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Datagram(size={self.size!r}, payload={self.payload!r}, "
            f"sent_at={self.sent_at!r}, meta={self.meta!r})"
        )
