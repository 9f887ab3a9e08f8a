"""Blakley's hyperplane threshold scheme over a prime field.

Blakley's 1979 construction (the scheme whose "courier mode" motivates the
paper's protocol model, Sec. II-B) encodes the secret as one coordinate of
a point in GF(p)^k; each share is a hyperplane passing through that point.
Any ``k`` hyperplanes in general position intersect in exactly the point,
while fewer leave a whole affine subspace of candidates.

This implementation:

* maps the byte secret to an element of GF(p) where ``p`` is the smallest
  prime above ``256 ** len(secret)`` (so the map is injective);
* draws random hyperplane normals, redrawing until *every* k-subset of the
  m hyperplanes is in general position (feasible because the protocol's
  ``m <= n`` is small);
* reconstructs by Gaussian elimination modulo p.

Blakley shares are larger than the secret (a normal vector plus an offset),
so the scheme is deliberately *not* rate-optimal -- the reference protocol
uses Shamir.  It is included to show the protocol stack is scheme-agnostic
and to back the historical model in the paper's background section.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Tuple

from repro.gf.gfp import next_prime
from repro.sharing.base import (
    ByteSource,
    ReconstructionError,
    SecretSharingScheme,
    Share,
    check_share_group,
    validate_parameters,
)


def solve_mod_p(rows: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> List[int]:
    """Solve the square linear system ``rows @ x = rhs`` modulo prime ``p``.

    Plain Gaussian elimination with partial (nonzero) pivoting over Python
    integers, so arbitrarily large prime moduli are supported.

    Raises:
        ReconstructionError: if the system is singular modulo ``p``.
    """
    n = len(rows)
    aug = [[value % p for value in row] + [rhs[i] % p] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] % p != 0), None)
        if pivot_row is None:
            raise ReconstructionError("hyperplane system is singular modulo p")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(value * inv) % p for value in aug[col]]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [(a - factor * b) % p for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _det_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of a square matrix modulo prime ``p`` (for position checks)."""
    n = len(rows)
    mat = [[value % p for value in row] for row in rows]
    det = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            det = (-det) % p
        det = (det * mat[col][col]) % p
        inv = pow(mat[col][col], p - 2, p)
        for r in range(col + 1, n):
            if mat[r][col] == 0:
                continue
            factor = (mat[r][col] * inv) % p
            mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[col])]
    return det


def _int_to_bytes(value: int, length: int) -> bytes:
    return value.to_bytes(length, "big")


def _bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


class BlakleyScheme(SecretSharingScheme):
    """Blakley (k, m) hyperplane sharing over GF(p).

    Args:
        max_secret_len: largest secret, in bytes, the scheme will accept.
            The prime modulus is sized for this length up front so all
            shares of a stream use the same field.
        max_redraws: how many times to redraw hyperplane normals before
            giving up on finding a general-position arrangement (this is a
            safety valve; random normals over a large prime field are in
            general position with overwhelming probability).
    """

    name = "blakley-gfp"

    def __init__(self, max_secret_len: int = 64, max_redraws: int = 64):
        if max_secret_len < 1:
            raise ValueError("max_secret_len must be positive")
        self.max_secret_len = max_secret_len
        self.max_redraws = max_redraws
        # The encoded point coordinate is (length byte + padded payload),
        # i.e. max_secret_len + 1 bytes, so the prime must clear 256**(L+1).
        self.p = next_prime(256 ** (max_secret_len + 1))
        # One field element needs this many bytes on the wire.
        self._element_len = (self.p.bit_length() + 7) // 8

    def _random_element(self, rng: ByteSource) -> int:
        """Uniform element of GF(p) via rejection sampling over random bytes."""
        nbytes = self._element_len
        while True:
            candidate = _bytes_to_int(rng.bytes(nbytes))
            if candidate < self.p:
                return candidate

    def split(
        self,
        secret: bytes,
        k: int,
        m: int,
        rng: ByteSource,
    ) -> List[Share]:
        validate_parameters(k, m)
        if len(secret) > self.max_secret_len:
            raise ValueError(
                f"secret of {len(secret)} bytes exceeds configured maximum "
                f"{self.max_secret_len}"
            )
        # The point: first coordinate encodes (length, payload) so that
        # reconstruction can strip the length back off losslessly.
        encoded = _bytes_to_int(bytes([len(secret)]) + secret.rjust(self.max_secret_len, b"\0"))
        if encoded >= self.p:  # pragma: no cover - prime is sized to prevent this
            raise ValueError("encoded secret does not fit in the field")
        point = [encoded] + [self._random_element(rng) for _ in range(k - 1)]

        for _ in range(self.max_redraws):
            normals = [[self._random_element(rng) for _ in range(k)] for _ in range(m)]
            if self._general_position(normals, k):
                break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("could not find hyperplanes in general position")

        shares = []
        for index, normal in enumerate(normals, start=1):
            offset = sum(c * x for c, x in zip(normal, point)) % self.p
            payload = b"".join(
                _int_to_bytes(value, self._element_len) for value in normal + [offset]
            )
            shares.append(Share(index=index, data=payload, k=k, m=m))
        return shares

    def _general_position(self, normals: Sequence[Sequence[int]], k: int) -> bool:
        """Whether every k-subset of the normals is linearly independent."""
        return all(
            _det_mod_p(list(subset), self.p) != 0
            for subset in combinations(normals, k)
        )

    def _decode_share(self, share: Share) -> Tuple[List[int], int]:
        expected = self._element_len * (share.k + 1)
        if len(share.data) != expected:
            raise ReconstructionError(
                f"Blakley share has {len(share.data)} bytes, expected {expected}"
            )
        values = [
            _bytes_to_int(share.data[i * self._element_len : (i + 1) * self._element_len])
            for i in range(share.k + 1)
        ]
        return values[:-1], values[-1]

    def reconstruct(self, shares: Sequence[Share]) -> bytes:
        k = check_share_group(shares)
        group = list(shares)[:k]
        rows = []
        rhs = []
        for share in group:
            normal, offset = self._decode_share(share)
            rows.append(normal)
            rhs.append(offset)
        point = solve_mod_p(rows, rhs, self.p)
        decoded = _int_to_bytes(point[0], self.max_secret_len + 1)
        length = decoded[0]
        if length > self.max_secret_len:
            raise ReconstructionError("reconstructed length byte is corrupt")
        payload = decoded[1:]
        return payload[len(payload) - length :] if length else b""
