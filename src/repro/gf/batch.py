"""Row kernels for whole-batch secret sharing over GF(2^8).

The scalar field in :mod:`repro.gf.gf256` and the per-byte split and
interpolation in ``tests/sharing_oracle.py`` are the *reference oracle*:
correct, simple, and slow.  This module re-expresses the two sharing
primitives -- polynomial evaluation and Lagrange interpolation -- as
``bytes.translate`` passes over whole byte rows plus one XOR, so a whole
datagram (every byte position x every share point) moves through the field
in a few C-level passes.

Everything here is *exact* field arithmetic derived from the same
AES-polynomial log/antilog tables the scalar path builds, so batch results
are bit-identical to the scalar oracle byte for byte -- a property the test
suite (``tests/test_sharing_batch_equiv.py``) enforces, because the privacy
model (``H(Y) = H(X)``, Sec. III-C of the paper) assumes exact field
semantics.  Speed is gated end to end, not against the oracle: CI's ledger
A/B job runs the ``testbed_real`` workload (1250-B payloads through these
kernels) on the parent commit and on the change.

Table layout and kernels:

* ``MUL_TABLE`` is the full 256x256 ``uint8`` product table (64 KiB, built
  once at import from the scalar field's log/antilog tables):
  ``MUL_TABLE[a, b] == a * b``.  Row 0 and column 0 are zero by
  construction, so no kernel needs a zero-operand mask.
* ``MUL_ROWS[c]`` is row ``c`` of that table as a 256-byte string: the
  ``bytes.translate`` table for "multiply by c", so
  ``row.translate(MUL_ROWS[c])`` multiplies every byte of ``row`` by ``c``.
  A factor of 1 needs no table: the row is its own product.
* Rows in, rows out: every kernel takes a list or tuple of equal-length
  ``bytes``/``bytearray`` -- the form share payloads and an ``rng`` draw
  already have -- and returns ``bytes``, so the schemes build no matrix
  per symbol and convert nothing.
* ``eval_poly_at_points`` evaluates the power form ``XOR_j c_j * x^j``.
  Term ``j`` joins, over the ``m`` points, coefficient row ``j``
  translated by ``MUL_ROWS[x^j]`` (the tables of a point set are cached
  per degree); the ``k`` joined terms are XORed once, and share ``x`` is
  slice ``x - 1`` of the result.
* ``combine_rows`` is the one multiply-accumulate loop:
  ``XOR_i rows[i].translate(MUL_ROWS[weights[i]])``; on the numpy engine
  it XORs each product into the sum as it is made.
  ``lagrange_interpolate`` runs it with the basis ``l_i(x)`` of its node
  set, read from a bounded cache (share-index sets repeat on every
  symbol); the ramp scheme runs it once per inverse-Vandermonde row.

The XOR is the only step with two engines, chosen by the row length.
Rows shorter than :data:`XOR_CROSSOVER` bytes (a 64-byte fleet symbol)
XOR as Python ints: one ``int.from_bytes`` per operand and one
``to_bytes``, with no numpy call at all.  Longer rows (a 1250-byte testbed
symbol) take one numpy XOR per operand and one ``tobytes``.  The constant
is the measured crossover of the two; docs/MODEL.md ("Two XOR engines")
has the table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gf.gf256 import _EXP, _LOG, GF256_FIELD

__all__ = [
    "MUL_TABLE",
    "MUL_ROWS",
    "XOR_CROSSOVER",
    "combine_rows",
    "eval_poly_at_points",
    "lagrange_interpolate",
]

#: Full product table, ``MUL_TABLE[a, b] == a * b`` in GF(2^8): the
#: antilog (doubled, so any sum of two logs indexes it) of the log sum.
_LOGS = np.array(_LOG[1:], dtype=np.int16)
MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
MUL_TABLE[1:, 1:] = np.array(_EXP + _EXP, dtype=np.uint8)[_LOGS[:, None] + _LOGS[None, :]]
MUL_TABLE.setflags(write=False)

#: ``MUL_ROWS[c]`` is ``MUL_TABLE[c]`` as bytes: the ``bytes.translate``
#: table that multiplies every byte of a string by ``c``.
MUL_ROWS = tuple([row.tobytes() for row in MUL_TABLE])

#: Rows shorter than this many bytes XOR as Python ints, rows this long or
#: longer in numpy: the shortest measured row at which no kernel call is
#: slower on numpy (docs/MODEL.md, "Two XOR engines").
XOR_CROSSOVER = 256


def _as_point(x) -> int:
    """A single evaluation point as a Python int in 0..255."""
    if not isinstance(x, (int, np.integer)) or not 0 <= x <= 255:
        raise ValueError(f"evaluation point must be an integer in 0..255, got {x!r}")
    return int(x)


def _as_points(xs) -> Tuple[int, ...]:
    """Evaluation points (or interpolation nodes) as Python ints in 0..255.

    A tuple or range of Python ints costs one ``tuple`` call and a type
    check per point; other elements (numpy integers) go through
    :func:`_as_point`.
    """
    points = tuple(xs)
    for x in points:
        if type(x) is not int or not 0 <= x <= 255:
            return tuple([_as_point(x) for x in points])
    return points


def _row_length(rows) -> int:
    """The common length of ``rows``, which must be a non-empty list or
    tuple of equal-length byte strings (a numpy array gets ValueError)."""
    if isinstance(rows, (list, tuple)) and rows:
        size = len(rows[0])
        for row in rows:
            if not isinstance(row, (bytes, bytearray)) or len(row) != size:
                break
        else:
            return size
    raise ValueError("rows must be a non-empty list of equal-length byte strings")


def _xor(row: bytes, operands: List[bytes], count: int = 1) -> bytes:
    """``row`` repeated ``count`` times and XORed byte-wise with every operand
    (``count`` rows of ``len(row)`` bytes, joined), as ``bytes``."""
    if not operands:
        return bytes(row * count)
    if len(row) < XOR_CROSSOVER:
        acc = int.from_bytes(row * count, "little")
        for operand in operands:
            acc ^= int.from_bytes(operand, "little")
        return acc.to_bytes(count * len(row), "little")
    out = np.frombuffer(operands[0], np.uint8)
    if count == 1:
        out = out ^ np.frombuffer(row, np.uint8)
    else:
        # The row broadcasts over the first operand's (count, len(row)) view.
        out = (out.reshape(count, len(row)) ^ np.frombuffer(row, np.uint8)).reshape(-1)
    for operand in operands[1:]:
        out ^= np.frombuffer(operand, np.uint8)
    return out.tobytes()


def combine_rows(weights: Sequence[int], rows: Sequence[bytes]) -> bytes:
    """``XOR_i weights[i] * rows[i]`` byte-wise in GF(2^8), as ``bytes``: one
    field element (a Python int) per equal-length byte row."""
    if len(rows[0]) < XOR_CROSSOVER:
        products = [
            row if weight == 1 else row.translate(MUL_ROWS[weight])
            for weight, row in zip(weights, rows)
        ]
        return _xor(products[0], products[1:])
    # The numpy engine XORs each product as it is made: no product list.
    acc = None
    for weight, row in zip(weights, rows):
        product = np.frombuffer(row if weight == 1 else row.translate(MUL_ROWS[weight]), np.uint8)
        acc = product if acc is None else acc ^ product
    return acc.tobytes()


@lru_cache(maxsize=1024)
def _power_rows(points: Tuple[int, ...], degree: int) -> Tuple[Tuple[Optional[bytes], ...], ...]:
    """For ``j = 1..degree``, the ``MUL_ROWS[x^j]`` table of every point ``x``,
    or None where ``x^j == 1`` (that product is the row itself)."""
    terms = []
    for j in range(1, degree + 1):
        powers = [GF256_FIELD.pow(x, j) for x in points]
        terms.append(tuple([None if power == 1 else MUL_ROWS[power] for power in powers]))
    return tuple(terms)


def eval_poly_at_points(coeffs: Sequence[bytes], xs) -> List[bytes]:
    """Evaluate ``n`` byte-wise polynomials at ``m`` points.

    Args:
        coeffs: the ``k`` coefficient rows, constant term first, as ``k``
            byte strings of length ``n``; byte ``b`` of every row holds
            the polynomial for byte position ``b``.
        xs: the ``m`` evaluation points, integers in 0..255.

    Returns:
        ``m`` byte strings of length ``n``: row ``i`` is the evaluation of
        every byte polynomial at ``xs[i]`` -- i.e. share ``xs[i]`` of the
        whole batch -- as ``XOR_j coeffs[j] * xs[i]^j``.
    """
    size = _row_length(coeffs)
    points = _as_points(xs)
    # Term j joins the products coeffs[j] * x^j of every point x, in point
    # order; the constant row is the same at every point.
    terms = [
        b"".join([row if table is None else row.translate(table) for table in tables])
        for row, tables in zip(coeffs[1:], _power_rows(points, len(coeffs) - 1))
    ]
    flat = _xor(coeffs[0], terms, len(points))
    return [flat[i * size : (i + 1) * size] for i in range(len(points))]


@lru_cache(maxsize=1024)
def _lagrange_basis(nodes: Tuple[int, ...], x: int) -> Tuple[int, ...]:
    """``(l_0(x), ..., l_{t-1}(x))`` for distinct ``nodes``, as an immutable tuple.

    ``l_i(x) = prod_{j != i} (x - x_j) / (x_i - x_j)`` (subtraction is XOR
    in characteristic 2).  At a node ``x == x_h`` this is the indicator of
    ``h``, so interpolating there returns share ``h`` unchanged.
    """
    if not nodes:
        raise ValueError("interpolation needs at least one point")
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation points must have distinct x-coordinates")
    basis = []
    for i, node in enumerate(nodes):
        num = den = 1
        for j, other in enumerate(nodes):
            if j != i:
                num = GF256_FIELD.mul(num, x ^ other)
                den = GF256_FIELD.mul(den, node ^ other)
        basis.append(GF256_FIELD.div(num, den))
    return tuple(basis)


def lagrange_interpolate(xs, ys: Sequence[bytes], x: int = 0) -> bytes:
    """Interpolate a whole share batch and evaluate at ``x`` in one pass.

    Args:
        xs: the ``t >= 1`` distinct interpolation nodes (share indices).
        ys: the ``t`` share rows, as byte strings of one length ``n``;
            row ``i`` is share ``xs[i]`` of an ``n``-byte batch.
        x: evaluation point, an integer in 0..255; 0 recovers the Shamir
            secret.

    Returns:
        ``n`` bytes: the unique degree-<t byte-wise polynomial through the
        shares, evaluated at ``x`` for every byte position at once.
    """
    basis = _lagrange_basis(_as_points(xs), _as_point(x))
    _row_length(ys)
    if len(ys) != len(basis):
        raise ValueError("ys must have one row per node")
    return combine_rows(basis, ys)
