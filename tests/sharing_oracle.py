"""Scalar GF(2^8) sharing oracle: the tests' reference for the batch kernels.

Per-byte Shamir/ramp split and reconstruct written directly against the
scalar field (:mod:`repro.gf.gf256`) and Horner evaluation
(:func:`repro.gf.poly.evaluate`) -- one polynomial evaluation / Lagrange
interpolation per byte, no numpy in the arithmetic.  Deliberately slow
and obvious.

The batch kernels in :mod:`repro.gf.batch` (and the schemes built on
them) must match this module *byte for byte* under the same rng: leakage
analyses of Shamir sharing assume exact field semantics (``H(Y) = H(X)``,
Sec. III-C), so a vectorization bug would silently invalidate the privacy
model.  ``tests/test_sharing_batch_equiv.py`` asserts the equivalence; to
keep it meaningful the randomness here is one ``rng.integers`` draw of the
same uniform bytes, in the same order, as the production schemes' single
draw, so identical seeds yield identical coefficients and leave the
generator in the same state.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.gf.field import Field
from repro.gf.gf256 import GF256_FIELD
from repro.gf.poly import evaluate
from repro.sharing.base import (
    ReconstructionError,
    Share,
    check_share_group,
    validate_parameters,
)
from repro.sharing.ramp import _LENGTH, RampScheme, _vandermonde_inverse_rows


def lagrange_interpolate_at(
    field: Field,
    points: Sequence[Tuple[int, int]],
    x: int,
) -> int:
    """Evaluate, at ``x``, the unique polynomial through ``points``.

    ``points`` is a sequence of ``(x_i, y_i)`` pairs with distinct ``x_i``.
    This is the core of Shamir reconstruction: with ``x = 0`` it recovers
    the secret directly without materialising the whole polynomial.

    Raises:
        ValueError: if two points share an x-coordinate.
    """
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x-coordinates")
    total = 0
    for i, (xi, yi) in enumerate(points):
        num = 1
        den = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = field.mul(num, field.sub(x, xj))
            den = field.mul(den, field.sub(xi, xj))
        total = field.add(total, field.mul(yi, field.div(num, den)))
    return total


def scalar_shamir_split(
    secret: bytes,
    k: int,
    m: int,
    rng: np.random.Generator,
) -> List[Share]:
    """Byte-at-a-time Shamir split; rng-compatible with ``ShamirScheme``.

    Byte ``b`` of share ``x`` is the Horner evaluation of the degree-(k-1)
    polynomial whose constant term is ``secret[b]`` and whose higher
    coefficients come from the same single ``(k-1, len(secret))`` uniform
    draw the vectorized scheme makes.
    """
    validate_parameters(k, m)
    if m > 255:
        raise ValueError("GF(256) Shamir supports at most 255 shares")
    n = len(secret)
    if k > 1:
        random_block = rng.integers(0, 256, size=(k - 1, n), dtype=np.uint8)
    else:
        random_block = np.zeros((0, n), dtype=np.uint8)
    shares = []
    for x in range(1, m + 1):
        data = bytes(
            evaluate(
                GF256_FIELD,
                [secret[b]] + [int(random_block[j, b]) for j in range(k - 1)],
                x,
            )
            for b in range(n)
        )
        shares.append(Share(index=x, data=data, k=k, m=m))
    return shares


def scalar_shamir_reconstruct(shares: Sequence[Share]) -> bytes:
    """Byte-at-a-time Lagrange interpolation at x = 0."""
    k = check_share_group(shares)
    group = list(shares)[:k]
    lengths = {len(s.data) for s in group}
    if len(lengths) != 1:
        raise ReconstructionError(f"shares have inconsistent lengths: {sorted(lengths)}")
    size = lengths.pop()
    return bytes(
        lagrange_interpolate_at(
            GF256_FIELD,
            [(share.index, share.data[b]) for share in group],
            0,
        )
        for b in range(size)
    )


def scalar_evaluate_shares_at(shares: Sequence[Share], x: int) -> bytes:
    """Byte-at-a-time Lagrange evaluation at an arbitrary point ``x``.

    Scalar twin of :func:`repro.sharing.robust.evaluate_shares_at`.
    """
    xs = [share.index for share in shares]
    if len(set(xs)) != len(xs):
        raise ReconstructionError(f"duplicate share indices: {sorted(xs)}")
    size = len(shares[0].data)
    return bytes(
        lagrange_interpolate_at(
            GF256_FIELD,
            [(share.index, share.data[b]) for share in shares],
            x,
        )
        for b in range(size)
    )


def scalar_ramp_split(
    secret: bytes,
    k: int,
    m: int,
    rng: np.random.Generator,
    blocks: int = 2,
) -> List[Share]:
    """Byte-at-a-time (k, L, m) ramp split; rng-compatible with ``RampScheme``."""
    scheme = RampScheme(blocks=blocks)
    validate_parameters(k, m)
    if m > 255:
        raise ValueError("GF(256) ramp supports at most 255 shares")
    if k < blocks:
        raise ValueError(f"ramp with L={blocks} blocks needs k >= L, got k={k}")
    body = _LENGTH.pack(len(secret)) + secret
    size = scheme.share_size(len(secret))
    body = body.ljust(size * blocks, b"\0")
    secret_blocks = [body[j * size : (j + 1) * size] for j in range(blocks)]
    if k > blocks:
        random_block = rng.integers(0, 256, size=(k - blocks, size), dtype=np.uint8)
    else:
        random_block = np.zeros((0, size), dtype=np.uint8)
    shares = []
    for x in range(1, m + 1):
        data = bytes(
            evaluate(
                GF256_FIELD,
                [block[b] for block in secret_blocks]
                + [int(random_block[j, b]) for j in range(k - blocks)],
                x,
            )
            for b in range(size)
        )
        shares.append(Share(index=x, data=data, k=k, m=m))
    return shares


def scalar_ramp_reconstruct(shares: Sequence[Share], blocks: int = 2) -> bytes:
    """Byte-at-a-time ramp reconstruction via the inverse Vandermonde rows."""
    k = check_share_group(shares)
    group = list(shares)[:k]
    if k < blocks:
        raise ReconstructionError(f"ramp with L={blocks} blocks cannot have threshold {k}")
    lengths = {len(share.data) for share in group}
    if len(lengths) != 1:
        raise ReconstructionError(f"shares have inconsistent lengths: {sorted(lengths)}")
    size = lengths.pop()
    xs = [share.index for share in group]
    inverse_rows = _vandermonde_inverse_rows(xs, blocks)
    pieces = []
    for row in inverse_rows:
        pieces.append(
            bytes(
                _xor_reduce(
                    GF256_FIELD.mul(weight, share.data[b])
                    for weight, share in zip(row, group)
                )
                for b in range(size)
            )
        )
    body = b"".join(pieces)
    if len(body) < _LENGTH.size:
        raise ReconstructionError("ramp shares too short to carry a length prefix")
    (length,) = _LENGTH.unpack_from(body)
    if length > len(body) - _LENGTH.size:
        raise ReconstructionError("reconstructed length prefix is corrupt")
    return body[_LENGTH.size : _LENGTH.size + length]


def _xor_reduce(values) -> int:
    acc = 0
    for value in values:
        acc ^= value
    return acc

