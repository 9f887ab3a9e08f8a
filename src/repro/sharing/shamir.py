"""Shamir's threshold scheme over GF(2^8), batched over whole datagrams.

Each byte of the secret is an independent GF(2^8) secret: byte ``b`` of
share ``i`` is ``f_b(i)`` where ``f_b`` is a random degree-(k-1) polynomial
with constant term ``secret[b]``.  Every share therefore has exactly the
length of the secret, which is the optimal ``H(Y) = H(X)`` case the paper's
rate model assumes (Sec. III-C).

``split`` evaluates *all m share points for all payload bytes* in one
kernel call over ``k`` coefficient rows: the secret and the ``k - 1`` rows
cut from a single ``rng.bytes`` draw, passed to :mod:`repro.gf.batch` as
byte strings.  The sender serves that draw from block-drawn raw words
(:class:`repro.netsim.rng.RandomBytes`), byte-identical to a direct
``rng.integers(0, 256, ...)`` draw from the same generator.  The kernel
translates each coefficient row once per share point by ``MUL_ROWS[x^j]``
and XORs the results once -- on Python ints for a small datagram, in
numpy for a large one -- and returns the share payloads as ``bytes``
rows, so the shares take them as they are.  ``reconstruct`` passes the
share payloads as they are to one Lagrange evaluation, whose basis
coefficients are cached per share-index set, and XORs one translated row
per share into the secret's bytes.  The per-byte scalar path in
``tests/sharing_oracle.py`` is the reference oracle: the batch kernels are
bit-identical to it byte for byte, which
``tests/test_sharing_batch_equiv.py`` and the golden vectors in
``tests/test_gf_vectors.py`` pin down.  Their speed is gated by CI's
ledger A/B job, which times ``testbed_real`` on the parent commit and on
the change.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.gf.batch import eval_poly_at_points, lagrange_interpolate
from repro.sharing.base import (
    ByteSource,
    ReconstructionError,
    SecretSharingScheme,
    Share,
    check_share_group,
    validate_parameters,
)


#: Builds a :class:`Share` from fields already checked, skipping its
#: constructor's checks.
_new_share = tuple.__new__


def _share_rows(group: Sequence[Share]) -> Tuple[Tuple[int, ...], List[bytes]]:
    """The indices and payloads of ``group``, as the row kernels take them.

    Raises:
        ReconstructionError: if ``group`` is empty, an index is beyond the
            255 nonzero field elements, or the payloads differ in length.
    """
    if not group:
        raise ReconstructionError("no shares supplied")
    rows = [share.data for share in group]
    size = len(rows[0])
    for share in group:
        if share.index > ShamirScheme.MAX_SHARES:
            raise ReconstructionError(
                f"share index {share.index} is not a nonzero GF(256) element"
            )
        if len(share.data) != size:
            lengths = sorted({len(row) for row in rows})
            raise ReconstructionError(f"shares have inconsistent lengths: {lengths}")
    return tuple([share.index for share in group]), rows


def _random_rows(rng: ByteSource, count: int, size: int) -> List[bytes]:
    """``count`` uniform coefficient rows of ``size`` bytes, cut from one draw.

    The draw is ``rng.bytes(count * size)``: the same bytes and generator
    state as a ``(count, size)`` ``rng.integers(0, 256, ...)`` draw.  An
    empty draw is never made, because ``Generator.bytes(0)`` consumes a
    word where the ``integers`` draw consumes none.
    """
    if count * size == 0:
        return [b""] * count
    draw = rng.bytes(count * size)
    return [draw[j * size : (j + 1) * size] for j in range(count)]


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
        rng: ByteSource,
    ) -> List[Share]:
        validate_parameters(k, m)
        if m > self.MAX_SHARES:
            raise ValueError(f"GF(256) Shamir supports at most {self.MAX_SHARES} shares")
        if not isinstance(secret, bytes):
            secret = memoryview(secret).tobytes()
        # Row 0 is the secret; rows 1..k-1 are uniform random bytes.
        rows = [secret, *_random_rows(rng, k - 1, len(secret))]
        # Row x-1 of the evaluation is share x of every byte.  The indices
        # run 1..m and (k, m) passed validate_parameters, which is all
        # Share's constructor would check, so the shares are built as is.
        evaluations = eval_poly_at_points(rows, range(1, m + 1))
        return [_new_share(Share, (x, row, k, m)) for x, row in enumerate(evaluations, 1)]

    def reconstruct(self, shares: Sequence[Share]) -> bytes:
        k = check_share_group(shares)
        nodes, rows = _share_rows(list(shares)[:k])
        # Batched Lagrange interpolation at x = 0 across every byte position.
        return lagrange_interpolate(nodes, rows, 0)

    def split_many(
        self,
        secrets: Sequence[bytes],
        k: int,
        m: int,
        rng: ByteSource,
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
        # One draw per secret, in the order sequential split() calls make
        # them, so the batch is seed-for-seed identical; coefficient row j
        # joins row j of every secret's draw.
        draws = [_random_rows(rng, k - 1, size) for size in sizes]
        rows = [b"".join(secrets), *[b"".join(row) for row in zip(*draws)]]
        points = range(1, m + 1)
        evaluations = eval_poly_at_points(rows, points)
        batches: List[List[Share]] = []
        offset = 0
        for size in sizes:
            end = offset + size
            batches.append([Share(x, evaluations[x - 1][offset:end], k, m) for x in points])
            offset = end
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
            prepared.append(_share_rows(list(group)[:k]))
        # Bucket by geometry, preserving first-seen bucket order.
        buckets: "dict[tuple, list[int]]" = {}
        for position, (nodes, rows) in enumerate(prepared):
            buckets.setdefault((nodes, len(rows[0])), []).append(position)
        results: List[bytes] = [b""] * len(prepared)
        for (nodes, size), positions in buckets.items():
            # Share i of every group in the bucket, joined along the byte axis.
            stacked = [
                b"".join([prepared[position][1][i] for position in positions])
                for i in range(len(nodes))
            ]
            flat = lagrange_interpolate(nodes, stacked, 0)
            for slot, position in enumerate(positions):
                results[position] = flat[slot * size : (slot + 1) * size]
        return results
