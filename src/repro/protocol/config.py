"""Protocol configuration.

One dataclass gathers the tunables experiments set, so a run states its
configuration in one place and reports can print it.  Values no run
varies are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.protocol.auth import AuthConfig
from repro.sharing.base import SecretSharingScheme
from repro.sharing.shamir import ShamirScheme

#: Maximum number of in-flight incomplete symbols held by the receiver;
#: beyond it the oldest is evicted.
REASSEMBLY_LIMIT = 4096

#: How many symbols may wait in the sender for channel readiness before
#: the source starts dropping (the sender-side socket-buffer analogue).
SOURCE_QUEUE_LIMIT = 64

#: CPU work units (see :class:`repro.netsim.host.CpuModel`), charged only
#: when a node is given a finite-capacity CPU: to split one symbol, per
#: transmitted or received share, and per share actually used in
#: reconstruction (so cost grows with k, which is what makes large κ fall
#: off sooner in the paper's Figure 7).
CPU_SPLIT_COST = 1.0
CPU_SHARE_COST = 1.0
CPU_RECONSTRUCT_COST_PER_K = 1.0


@dataclass
class ProtocolConfig:
    """Tunables of a ReMICSS node.

    Values no run varies, such as the sender's source queue bound
    (``SOURCE_QUEUE_LIMIT``), are the module constants above.

    Attributes:
        kappa: target average threshold κ (used by the dynamic scheduler).
        mu: target average multiplicity µ (used by the dynamic scheduler).
        symbol_size: source symbol payload size in bytes.  The model's
            "unit rate" of a channel is expressed in symbols of this size.
        scheme: the threshold secret sharing scheme to split symbols with.
        reassembly_timeout: how long the receiver keeps an incomplete
            symbol before evicting it (the IP-fragment-reassembly borrow).
        selector_ordering: "headroom" (default) or "fixed" readiness
            ordering for the dynamic share schedule (see
            :mod:`repro.netsim.readiness`).
        share_synthetic: when True, the sender skips real share payloads
            (sizes only) -- used by pure rate benchmarks to keep the hot
            loop allocation-free.  Reconstruction is then skipped too; the
            receiver counts a symbol as delivered when k shares arrived.
        byzantine_tolerance: number of *corrupted* shares per symbol the
            receiver can correct (the PSMT threat model).  When positive,
            the receiver waits for ``k + 2e`` shares and decodes robustly
            (see :mod:`repro.sharing.robust`); requires real Shamir
            payloads and ``⌊µ⌋ >= ⌊κ⌋ + 2e`` so enough shares exist.
        auth: when set, every transmitted share carries a keyed MAC
            (:mod:`repro.protocol.auth`) and the receiver verifies before
            reassembly: bad-tag shares are dropped as *erasures*, so with
            ``byzantine_tolerance > 0`` recovery holds with up to
            ``m - k`` corrupted channels instead of ``floor((m-k)/2)``,
            and forgery is detected even at ``k = m``.  Requires real
            share payloads (a tag over a synthetic share authenticates
            nothing).
    """

    kappa: float = 1.0
    mu: float = 1.0
    symbol_size: int = 1250
    scheme: SecretSharingScheme = field(default_factory=ShamirScheme)
    reassembly_timeout: float = 5.0
    selector_ordering: str = "headroom"
    share_synthetic: bool = False
    byzantine_tolerance: int = 0
    auth: Optional[AuthConfig] = None

    def __post_init__(self) -> None:
        if not 1.0 <= self.kappa <= self.mu:
            raise ValueError(f"need 1 <= κ <= µ, got κ={self.kappa}, µ={self.mu}")
        if self.symbol_size <= 0:
            raise ValueError(f"symbol_size must be positive, got {self.symbol_size}")
        if not self.reassembly_timeout > 0:  # NaN fails too
            raise ValueError("reassembly_timeout must be positive")
        # The dynamic sampler draws k in {floor(κ), ceil(κ)} and m in
        # {floor(µ), ceil(µ)}; the scheme must accept the extreme pair.
        import math

        k_min, m_max = math.floor(self.kappa), math.ceil(self.mu)
        if not self.scheme.supports(k_min, max(k_min, m_max)):
            raise ValueError(
                f"scheme {self.scheme.name!r} cannot operate at κ={self.kappa}, "
                f"µ={self.mu} (needs support for k={k_min}, m={m_max})"
            )
        if self.byzantine_tolerance < 0:
            raise ValueError("byzantine_tolerance must be nonnegative")
        if self.byzantine_tolerance > 0:
            if self.share_synthetic:
                raise ValueError("byzantine tolerance needs real share payloads")
            if self.scheme.name != "shamir-gf256":
                raise ValueError(
                    "robust decoding is implemented for Shamir shares only"
                )
            if self.auth is None and math.floor(self.mu) < k_min + 2 * self.byzantine_tolerance:
                # With auth, verified-bad shares are erasures (cost one
                # unit of redundancy each), so the 2e headroom is not
                # required -- k verified shares reconstruct.
                raise ValueError(
                    f"correcting e={self.byzantine_tolerance} corruptions needs "
                    f"⌊µ⌋ >= ⌊κ⌋ + 2e (got κ={self.kappa}, µ={self.mu})"
                )
        if self.auth is not None and self.share_synthetic:
            raise ValueError("authenticated shares need real share payloads")
