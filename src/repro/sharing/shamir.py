"""Shamir's threshold scheme over GF(2^8), batched over whole datagrams.

Each byte of the secret is an independent GF(2^8) secret: byte ``b`` of
share ``i`` is ``f_b(i)`` where ``f_b`` is a random degree-(k-1) polynomial
with constant term ``secret[b]``.  Every share therefore has exactly the
length of the secret, which is the optimal ``H(Y) = H(X)`` case the paper's
rate model assumes (Sec. III-C).

``split`` evaluates *all m share points for all payload bytes* by
XOR-Horner over a ``(k, n)`` coefficient matrix (one product-table gather
per coefficient and point), and ``reconstruct`` interpolates the whole
byte batch with one Lagrange evaluation whose basis coefficients are cached
per share-index set -- both through :mod:`repro.gf.batch`.  Coefficient
sampling is amortized into a single ``rng.integers`` draw.  The scalar
path through :mod:`repro.gf` (exposed as :mod:`repro.sharing.reference`)
is the reference oracle: the batch kernels are bit-identical to it byte for byte,
which ``tests/test_sharing_batch_equiv.py`` and the golden vectors in
``tests/test_gf_vectors.py`` pin down.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.gf.batch import eval_poly_at_points, lagrange_interpolate
from repro.sharing.base import (
    ReconstructionError,
    SecretSharingScheme,
    Share,
    check_share_group,
    validate_parameters,
)


def _share_matrix(group: Sequence[Share]) -> np.ndarray:
    """Stack share payloads into a uint8 ``(t, n)`` matrix, validating lengths."""
    lengths = {len(s.data) for s in group}
    if len(lengths) != 1:
        raise ReconstructionError(f"shares have inconsistent lengths: {sorted(lengths)}")
    size = lengths.pop()
    matrix = np.empty((len(group), size), dtype=np.uint8)
    for i, share in enumerate(group):
        matrix[i] = np.frombuffer(share.data, dtype=np.uint8)
    return matrix


class ShamirScheme(SecretSharingScheme):
    """Byte-wise Shamir (k, m) threshold sharing over GF(2^8).

    Supports ``1 <= k <= m <= 255`` (share indices are nonzero field
    elements).  Splitting an empty secret yields empty shares; this is legal
    and round-trips, which the protocol relies on for zero-length datagrams.
    """

    name = "shamir-gf256"

    #: Largest usable multiplicity: indices are the 255 nonzero elements.
    MAX_SHARES = 255

    def supports(self, k: int, m: int) -> bool:
        return super().supports(k, m) and m <= self.MAX_SHARES

    def split(
        self,
        secret: bytes,
        k: int,
        m: int,
        rng: np.random.Generator,
    ) -> List[Share]:
        validate_parameters(k, m)
        if m > self.MAX_SHARES:
            raise ValueError(f"GF(256) Shamir supports at most {self.MAX_SHARES} shares")
        secret_vec = np.frombuffer(secret, dtype=np.uint8)
        n = len(secret_vec)
        # coeffs[0] is the secret; coeffs[1..k-1] are uniform random bytes,
        # drawn once for the whole batch.
        coeffs = np.empty((k, n), dtype=np.uint8)
        coeffs[0] = secret_vec
        if k > 1:
            coeffs[1:] = rng.integers(0, 256, size=(k - 1, n), dtype=np.uint8)
        # Row x-1 of the evaluation is share x of every byte.
        evaluations = eval_poly_at_points(coeffs, np.arange(1, m + 1, dtype=np.uint8))
        return [
            Share(index=x, data=evaluations[x - 1].tobytes(), k=k, m=m)
            for x in range(1, m + 1)
        ]

    def reconstruct(self, shares: Sequence[Share]) -> bytes:
        k = check_share_group(shares)
        group = list(shares)[:k]
        matrix = _share_matrix(group)
        xs = np.array([s.index for s in group], dtype=np.uint8)
        # Batched Lagrange interpolation at x = 0 across every byte position.
        return lagrange_interpolate(xs, matrix, 0).tobytes()

    def split_many(
        self,
        secrets: Sequence[bytes],
        k: int,
        m: int,
        rng: np.random.Generator,
    ) -> List[List[Share]]:
        """Split a batch of secrets in one vectorized pass.

        Bit-identical to calling :meth:`split` per secret with the same rng
        (the random block for each secret is drawn in the same order), but
        the m-point polynomial evaluation runs once over the concatenated
        byte batch instead of once per datagram.
        """
        validate_parameters(k, m)
        if m > self.MAX_SHARES:
            raise ValueError(f"GF(256) Shamir supports at most {self.MAX_SHARES} shares")
        if not secrets:
            return []
        sizes = [len(secret) for secret in secrets]
        total = sum(sizes)
        coeffs = np.empty((k, total), dtype=np.uint8)
        coeffs[0] = np.frombuffer(b"".join(secrets), dtype=np.uint8)
        if k > 1:
            # Preserve the per-secret draw order of the scalar loop so the
            # batch is seed-for-seed identical to sequential split() calls.
            offset = 0
            for size in sizes:
                coeffs[1:, offset : offset + size] = rng.integers(
                    0, 256, size=(k - 1, size), dtype=np.uint8
                )
                offset += size
        evaluations = eval_poly_at_points(coeffs, np.arange(1, m + 1, dtype=np.uint8))
        batches: List[List[Share]] = []
        offset = 0
        for size in sizes:
            block = evaluations[:, offset : offset + size]
            batches.append(
                [
                    Share(index=x, data=block[x - 1].tobytes(), k=k, m=m)
                    for x in range(1, m + 1)
                ]
            )
            offset += size
        return batches

    def reconstruct_many(self, groups: Sequence[Sequence[Share]]) -> List[bytes]:
        """Reconstruct many share groups, batching groups with equal geometry.

        Groups whose (share-index tuple, payload length) agree are stacked
        and interpolated through a single batched Lagrange pass; output
        order matches the input order and is bit-identical to calling
        :meth:`reconstruct` per group.
        """
        prepared = []
        for group in groups:
            k = check_share_group(group)
            chosen = list(group)[:k]
            matrix = _share_matrix(chosen)
            xs = tuple(s.index for s in chosen)
            prepared.append((xs, matrix))
        # Bucket by geometry, preserving first-seen bucket order.
        buckets: "dict[tuple, list[int]]" = {}
        for position, (xs, matrix) in enumerate(prepared):
            buckets.setdefault((xs, matrix.shape[1]), []).append(position)
        results: List[bytes] = [b""] * len(prepared)
        for (xs, size), positions in buckets.items():
            stacked = np.concatenate(
                [prepared[position][1] for position in positions], axis=1
            )
            flat = lagrange_interpolate(np.array(xs, dtype=np.uint8), stacked, 0)
            for slot, position in enumerate(positions):
                results[position] = flat[slot * size : (slot + 1) * size].tobytes()
        return results
