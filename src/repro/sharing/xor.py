"""The (n, n) perfect scheme built from one-time-pad XOR.

This is the scheme the MICSS protocol is restricted to (Sec. V of the
paper): all ``m`` shares are required to reconstruct, so ``k`` must equal
``m``.  Shares 1..m-1 are uniform random pads and share m is the secret
XORed with all of them -- exactly Shannon's one-time pad generalised to
multiple pads, hence information-theoretically perfect.

Its presence lets the benchmarks compare the flexible ReMICSS protocol
against a faithful MICSS baseline whose only reachable configuration is
``κ = µ = n``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.sharing.base import (
    ByteSource,
    ReconstructionError,
    SecretSharingScheme,
    Share,
    check_share_group,
    validate_parameters,
)


class XorScheme(SecretSharingScheme):
    """Perfect (m, m) sharing via XOR pads; only supports ``k == m``."""

    name = "xor-perfect"

    def supports(self, k: int, m: int) -> bool:
        return super().supports(k, m) and k == m

    def split(
        self,
        secret: bytes,
        k: int,
        m: int,
        rng: ByteSource,
    ) -> List[Share]:
        validate_parameters(k, m)
        if k != m:
            raise ValueError(f"XOR perfect sharing requires k == m, got k={k}, m={m}")
        running = np.frombuffer(secret, dtype=np.uint8).copy()
        shares = []
        for index in range(1, m):
            # No empty draw: Generator.bytes(0) would consume a word.
            pad = rng.bytes(len(running)) if len(running) else b""
            running ^= np.frombuffer(pad, dtype=np.uint8)
            shares.append(Share(index, pad, k, m))
        shares.append(Share(m, running.tobytes(), k, m))
        return shares

    def reconstruct(self, shares: Sequence[Share]) -> bytes:
        # All shares are required regardless of the stored threshold.
        check_share_group(shares)
        if len(shares) < shares[0].m:
            raise ReconstructionError(
                f"XOR perfect sharing needs all {shares[0].m} shares, got {len(shares)}"
            )
        lengths = {len(s.data) for s in shares}
        if len(lengths) != 1:
            raise ReconstructionError(f"shares have inconsistent lengths: {sorted(lengths)}")
        result = np.zeros(lengths.pop(), dtype=np.uint8)
        for share in shares:
            np.bitwise_xor(result, np.frombuffer(share.data, dtype=np.uint8), out=result)
        return result.tobytes()
