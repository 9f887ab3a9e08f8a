"""A wire-tapping eavesdropper with per-channel observation probabilities.

The adversary taps every channel's forward link.  Each transmitted share
is observed independently with the channel's risk probability ``z_i`` --
observation happens at transmission time, so shares lost in transit can
still be captured (exactly the paper's threat model).  Captured shares are
grouped by symbol, ``(flow, seq)``, since every flow numbers its symbols
from 0, and within a symbol by share index: a repair can send one index
twice, and a second copy teaches nothing.  Once k distinct indices of a
symbol are held, the adversary performs a *real* reconstruction, so the
compromise counter is ground truth rather than an assumption about the
sharing scheme.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.netsim.link import Link
from repro.netsim.packet import Datagram
from repro.protocol.wire import WireFormatError, decode_share
from repro.sharing.base import ReconstructionError, SecretSharingScheme, Share

#: A symbol's identity on the wire: ``(flow, seq)``.
SymbolKey = Tuple[int, int]


class Eavesdropper:
    """Observes shares on tapped links and reconstructs what it can.

    Args:
        links: the links to tap, in channel-index order.
        risks: observation probability per tapped link (the z vector).
        rng: random stream for observation draws.
        scheme: scheme used to attempt reconstruction of captured symbols;
            when ``None`` (synthetic traffic) compromise is counted from
            share counts alone.
    """

    def __init__(
        self,
        links: Sequence[Link],
        risks: Sequence[float],
        rng: np.random.Generator,
        scheme: Optional[SecretSharingScheme] = None,
    ):
        if len(links) != len(risks):
            raise ValueError("need one risk value per tapped link")
        for z in risks:
            if not 0.0 <= z <= 1.0:
                raise ValueError(f"risk out of range: {z}")
        self.risks = list(risks)
        self.rng = rng
        self.scheme = scheme
        self.shares_seen = 0
        self.shares_captured = 0
        self.symbols_observed: "set[SymbolKey]" = set()
        self.compromised: Dict[SymbolKey, bytes] = {}
        #: Captured shares of each open symbol, by share index.
        self._partial: Dict[SymbolKey, Dict[int, Share]] = {}
        #: Captured share indices of each open synthetic symbol.
        self._synthetic_indices: Dict[SymbolKey, Set[object]] = {}
        for index, link in enumerate(links):
            link.watch_transmit(lambda dg, i=index: self._observe(i, dg))

    def _observe(self, channel: int, datagram: Datagram) -> None:
        self.shares_seen += 1
        if self.rng.random() >= self.risks[channel]:
            return
        self.shares_captured += 1
        if datagram.payload is None:
            self._observe_synthetic(datagram)
            return
        try:
            header, share = decode_share(datagram.payload)
        except WireFormatError:
            return
        key = (header.flow, header.seq)
        self.symbols_observed.add(key)
        if key in self.compromised:
            return
        captured = self._partial.setdefault(key, {})
        captured.setdefault(share.index, share)
        if len(captured) >= header.k and self.scheme is not None:
            try:
                secret = self.scheme.reconstruct(list(captured.values()))
            except ReconstructionError:
                return
            self.compromised[key] = secret
            del self._partial[key]

    def _observe_synthetic(self, datagram: Datagram) -> None:
        meta = datagram.meta
        seq, k = meta.get("seq"), meta.get("k")
        if seq is None or k is None:
            return
        key = (meta.get("flow", 0), seq)
        self.symbols_observed.add(key)
        if key in self.compromised:
            return
        captured = self._synthetic_indices.setdefault(key, set())
        index = meta.get("index")
        # A share whose meta names no index cannot repeat one: it counts
        # as a share of its own.
        captured.add(object() if index is None else index)
        if len(captured) >= k:
            self.compromised[key] = b""
            del self._synthetic_indices[key]

    # -- reporting ----------------------------------------------------------------

    def compromised_count(self) -> int:
        """Number of symbols the adversary fully learned."""
        return len(self.compromised)

    def compromise_rate(self, symbols_sent: int) -> float:
        """Fraction of sent symbols compromised (the empirical Z)."""
        if symbols_sent <= 0:
            raise ValueError("symbols_sent must be positive")
        return len(self.compromised) / symbols_sent

    def verify_plaintexts(self, originals: Dict[SymbolKey, bytes]) -> bool:
        """Check every reconstructed secret against the true payloads,
        keyed ``(flow, seq)``."""
        return all(
            key in originals and originals[key] == secret
            for key, secret in self.compromised.items()
        )
