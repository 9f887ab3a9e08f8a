"""The sender side of the bounded repair path.

The receiver NACKs a symbol that hits timeout eviction holding
``1 <= received < k`` shares (see the repair hook in
:mod:`repro.protocol.receiver`).  On the sender, a bounded buffer
remembers the last ``REPAIR_BUFFER_LIMIT`` transmitted symbols; a NACK
whose symbol is still buffered yields a :class:`RepairJob`: the missing
share indices (exactly enough to reach k), scheduled after an exponential
backoff with deterministic seeded jitter.

Two bounds keep repair from amplifying load: a per-symbol retry budget,
and the buffer itself (symbols evicted from it are beyond repair).  Only
*original* shares are ever retransmitted -- repair never performs a fresh
split and never sends more distinct indices than the original m, so the
adversary's view is a subset of what a loss-free run would have shown
(docs/RESILIENCE.md).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.protocol.resilience.config import (
    REPAIR_BACKOFF,
    REPAIR_BACKOFF_FACTOR,
    REPAIR_BUFFER_LIMIT,
    REPAIR_JITTER,
    REPAIR_RETRY_BUDGET,
)
from repro.sharing.base import Share


@dataclass(frozen=True)
class RepairJob:
    """One scheduled retransmission for a NACKed symbol.

    Attributes:
        flow: flow the symbol belongs to (0 = default single-flow stream).
        seq: symbol sequence number (unique within its flow).
        k: threshold.
        m: multiplicity of the original transmission.
        offered_at: when the symbol entered the sender (delay accounting).
        send_at: sim time the retransmission should happen.
        round: 1-based repair round for this symbol.
        shares: ``(index, share)`` pairs to resend; ``share`` is ``None``
            in synthetic mode (header-only datagrams).
    """

    seq: int
    k: int
    m: int
    offered_at: float
    send_at: float
    round: int
    shares: Tuple[Tuple[int, Optional[Share]], ...]
    flow: int = 0


class _BufferedSymbol:
    __slots__ = ("flow", "seq", "k", "m", "offered_at", "shares", "rounds", "next_ok_at")

    def __init__(
        self, flow: int, seq: int, k: int, m: int, offered_at: float,
        shares: Tuple[Optional[Share], ...],
    ):
        self.flow = flow
        self.seq = seq
        self.k = k
        self.m = m
        self.offered_at = offered_at
        self.shares = shares  # position i holds share index i+1
        self.rounds = 0
        self.next_ok_at = 0.0


class RepairBuffer:
    """Bounded memory of sent symbols, serving NACKs into repair jobs.

    Args:
        rng: seeded stream for retransmission jitter.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.unknown_nacks = 0
        self.budget_exhausted = 0
        self.duplicate_nacks = 0
        # Keyed by (flow, seq): a NACK can only ever be answered with the
        # shares of its own flow, so repair never crosses tenants.
        self._symbols: "OrderedDict[tuple, _BufferedSymbol]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._symbols)

    def remember(
        self,
        flow: int,
        seq: int,
        k: int,
        m: int,
        offered_at: float,
        shares: Sequence[Optional[Share]],
    ) -> None:
        """Buffer one transmitted symbol, evicting the oldest when full."""
        while len(self._symbols) >= REPAIR_BUFFER_LIMIT:
            self._symbols.popitem(last=False)
        self._symbols[(flow, seq)] = _BufferedSymbol(
            flow, seq, k, m, offered_at, tuple(shares)
        )

    def handle_nack(
        self, now: float, flow: int, seq: int, have: Sequence[int]
    ) -> Optional[RepairJob]:
        """Turn a NACK into a repair job, or None if repair is not possible.

        ``None`` outcomes are counted by cause: the symbol fell out of the
        buffer (``unknown_nacks``), its retry budget ran out
        (``budget_exhausted``), or a duplicate NACK arrived before the
        previous round's send time (``duplicate_nacks``).
        """
        symbol = self._symbols.get((flow, seq))
        if symbol is None:
            self.unknown_nacks += 1
            return None
        if symbol.rounds >= REPAIR_RETRY_BUDGET:
            self.budget_exhausted += 1
            return None
        if now < symbol.next_ok_at:
            self.duplicate_nacks += 1
            return None
        held = frozenset(have)
        missing = [index for index in range(1, symbol.m + 1) if index not in held]
        needed = symbol.k - len(held)
        if needed <= 0 or not missing:
            self.duplicate_nacks += 1
            return None
        delay = REPAIR_BACKOFF * (REPAIR_BACKOFF_FACTOR ** symbol.rounds)
        jitter = float(self.rng.random()) * REPAIR_JITTER * delay
        send_at = now + delay + jitter
        symbol.rounds += 1
        symbol.next_ok_at = send_at
        picked = missing[:needed]
        return RepairJob(
            seq=seq,
            k=symbol.k,
            m=symbol.m,
            offered_at=symbol.offered_at,
            send_at=send_at,
            round=symbol.rounds,
            shares=tuple((index, symbol.shares[index - 1]) for index in picked),
            flow=flow,
        )
