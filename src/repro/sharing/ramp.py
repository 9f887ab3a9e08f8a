"""Linear ramp scheme: trading secrecy margin for share size.

Shannon's bound -- which the paper leans on for its ``H(Y) = H(X)`` rate
assumption (Sec. III-C) -- says *perfect* threshold schemes cannot have
shares smaller than the secret.  Ramp schemes relax perfection to beat the
bound: a (k, L, m) linear ramp packs ``L`` secret blocks into one
polynomial, so each share is ``1/L`` of the secret's size, at the cost of a
graded secrecy guarantee:

* **any k shares** reconstruct the secret (same as Shamir);
* **k − L or fewer shares** reveal nothing (information-theoretic);
* between ``k − L + 1`` and ``k − 1`` shares, *partial* information leaks
  (an L-fold reduction of the candidate space per extra share).

``L = 1`` would be Shamir's scheme plus a length prefix; that scheme is
:class:`~repro.sharing.shamir.ShamirScheme`, so a ramp has ``L >= 2``.
The scheme exists in this library to quantify the paper's rate
assumption: plugging a ramp scheme into the protocol multiplies the
achievable source-symbol rate by L while weakening the privacy semantics
from "κ − 1 interceptions leak nothing" to "κ − L interceptions leak
nothing" -- an ablation checked end to end in
``tests/test_integration.py`` (L = 2 nearly doubles goodput).

Construction: for each byte position, a random polynomial of degree
``k − 1`` over GF(2^8) whose first L coefficients are the L secret block
bytes and whose remaining ``k − L`` coefficients are uniform; share i is
the evaluation at x = i, all m of them from one kernel call over the
k coefficient rows (the L blocks and the slices of one uniform draw).
Reconstruction inverts the k x k Vandermonde system of the share indices;
secret block l is then the weighted row combination
``XOR_i inverse[l][i] * share_i``, one ``bytes.translate`` per share and
block, across every byte position at once.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.gf.batch import combine_rows, eval_poly_at_points
from repro.gf.gf256 import GF256_FIELD
from repro.sharing.base import (
    ByteSource,
    ReconstructionError,
    SecretSharingScheme,
    Share,
    check_share_group,
    validate_parameters,
)
from repro.sharing.shamir import _random_rows, _share_rows

_LENGTH = struct.Struct(">I")


def _vandermonde_inverse_rows(xs: Sequence[int], rows: int) -> List[List[int]]:
    """First ``rows`` rows of the inverse Vandermonde matrix for points xs.

    Row j maps share values (f(x_1), ..., f(x_k)) to coefficient c_j.
    Computed by Gaussian elimination over GF(2^8) on the k x k system.
    """
    k = len(xs)
    # Build V with V[i][j] = xs[i] ** j.
    matrix = [[1] * k for _ in range(k)]
    for i, x in enumerate(xs):
        acc = 1
        for j in range(k):
            matrix[i][j] = acc
            acc = GF256_FIELD.mul(acc, x)
    # Gauss-Jordan on [V | I] leaves V^-1 on the right: c = V^-1 y.
    aug = [row[:] + [1 if r == c else 0 for c in range(k)] for r, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:  # pragma: no cover - Vandermonde is invertible
            raise ReconstructionError("degenerate share index set")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = GF256_FIELD.inv(aug[col][col])
        aug[col] = [GF256_FIELD.mul(value, inv) for value in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a ^ GF256_FIELD.mul(factor, b) for a, b in zip(aug[r], aug[col])]
    return [aug[j][k:] for j in range(rows)]


class RampScheme(SecretSharingScheme):
    """(k, L, m) linear ramp sharing over GF(2^8).

    Args:
        blocks: the ramp parameter L >= 2; shares are ~1/L of the secret
            size and k - L shares are information-theoretically useless.

    Notes:
        Requires ``k >= blocks`` (otherwise fewer than zero shares would
        have to leak nothing).  Secrets are length-prefixed and padded to a
        multiple of L internally, so arbitrary byte strings round-trip.
    """

    MAX_SHARES = 255

    def __init__(self, blocks: int = 2):
        if blocks < 2:
            raise ValueError(
                f"blocks must be at least 2, got {blocks} (L = 1 is ShamirScheme)"
            )
        self.blocks = blocks
        self.name = f"ramp-gf256-L{blocks}"

    def supports(self, k: int, m: int) -> bool:
        return (
            super().supports(k, m)
            and m <= self.MAX_SHARES
            and k >= self.blocks
        )

    def share_size(self, secret_len: int) -> int:
        """Share payload size for a secret of ``secret_len`` bytes."""
        body = _LENGTH.size + secret_len
        return -(-body // self.blocks)  # ceil division

    def split(
        self,
        secret: bytes,
        k: int,
        m: int,
        rng: ByteSource,
    ) -> List[Share]:
        validate_parameters(k, m)
        if m > self.MAX_SHARES:
            raise ValueError(f"GF(256) ramp supports at most {self.MAX_SHARES} shares")
        if k < self.blocks:
            raise ValueError(
                f"ramp with L={self.blocks} blocks needs k >= L, got k={k}"
            )
        body = _LENGTH.pack(len(secret)) + secret
        size = self.share_size(len(secret))
        body = body.ljust(size * self.blocks, b"\0")
        # Coefficient rows 0..L-1 are the secret blocks, rows L..k-1 one
        # uniform draw; one kernel call covers all m points.
        rows = [body[j * size : (j + 1) * size] for j in range(self.blocks)]
        rows += _random_rows(rng, k - self.blocks, size)
        evaluations = eval_poly_at_points(rows, range(1, m + 1))
        return [Share(x, evaluations[x - 1], k, m) for x in range(1, m + 1)]

    def reconstruct(self, shares: Sequence[Share]) -> bytes:
        k = check_share_group(shares)
        group = list(shares)[:k]
        if k < self.blocks:
            raise ReconstructionError(
                f"ramp with L={self.blocks} blocks cannot have threshold {k}"
            )
        xs, payloads = _share_rows(group)
        # Secret block l is row l of the inverse Vandermonde matrix applied
        # to every byte position at once: XOR_i inverse[l][i] * share_i.
        inverse = _vandermonde_inverse_rows(xs, self.blocks)
        body = b"".join([combine_rows(weights, payloads) for weights in inverse])
        if len(body) < _LENGTH.size:
            raise ReconstructionError("ramp shares too short to carry a length prefix")
        (length,) = _LENGTH.unpack_from(body)
        if length > len(body) - _LENGTH.size:
            raise ReconstructionError("reconstructed length prefix is corrupt")
        return body[_LENGTH.size : _LENGTH.size + length]
