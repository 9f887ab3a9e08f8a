"""Datagrams carried by the simulated links.

A datagram may carry a real byte payload (protocol correctness paths --
shares that actually get reconstructed) or only a *size* (pure rate
benchmarks that don't need the bytes).  Links account in bytes either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class Datagram:
    """One simulated datagram.

    Attributes:
        size: total size in bytes as seen by the link (headers included).
        payload: optional real bytes (``len(payload) <= size``; the
            difference models header overhead already folded into size).
        sent_at: simulated time the datagram entered the first link; set by
            the sending port, used for delay accounting.
        meta: free-form per-packet annotations (symbol seq, share index...).
    """

    size: int
    payload: Optional[bytes] = None
    sent_at: float = -1.0
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"datagram size must be positive, got {self.size}")
        if self.payload is not None and len(self.payload) > self.size:
            raise ValueError(
                f"payload of {len(self.payload)} bytes exceeds datagram size {self.size}"
            )
