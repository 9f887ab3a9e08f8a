"""Vectorized GF(2^8) kernels for whole-batch secret sharing.

The scalar field in :mod:`repro.gf.gf256` and the generic polynomial code in
:mod:`repro.gf.poly` are the *reference oracle*: correct, simple, and slow.
This module re-expresses the two sharing primitives -- polynomial evaluation
and Lagrange interpolation -- as ``bytes.translate`` passes over whole byte
rows plus numpy XORs, so a whole datagram (every byte position x every share
point) moves through the field in a few C-level passes.

Everything here is *exact* field arithmetic derived from the same
AES-polynomial log/antilog tables the scalar path builds, so batch results
are bit-identical to the scalar oracle byte for byte -- a property the test
suite (``tests/test_sharing_batch_equiv.py``) enforces, because the privacy
model (``H(Y) = H(X)``, Sec. III-C of the paper) assumes exact field
semantics.

Table layout and kernels:

* ``MUL_TABLE`` is the full 256x256 ``uint8`` product table (64 KiB, built
  once at import): ``MUL_TABLE[a, b] == a * b``.  Row 0 and column 0 are
  zero by construction, so no kernel needs a zero-operand mask.
* ``MUL_ROWS[c]`` is row ``c`` of that table as a 256-byte string: the
  ``bytes.translate`` table for "multiply by c", so
  ``row.translate(MUL_ROWS[c])`` multiplies every byte of ``row`` by ``c``.
* ``eval_poly_at_points`` runs XOR-Horner for all ``m`` points at once:
  each step translates every point's accumulator row by ``MUL_ROWS[x]``,
  joins the ``m`` products into one buffer, and XORs that ``(m, n)`` view
  with the next coefficient row in one numpy operation.
* ``lagrange_interpolate`` reads the basis ``l_i(x)`` for its node set from
  a bounded cache (share-index sets repeat on every symbol), then returns
  ``XOR_i ys[i].translate(MUL_ROWS[l_i(x)])``.
* Both kernels take their rows either as a 2-D ``uint8`` array or as a
  list of equal-length byte strings -- the form share payloads and an
  ``rng`` draw already have, so the schemes build no matrix per symbol.
* ``EXP_TABLE``/``LOG_TABLE`` (the antilog table doubled to length 510, and
  ``int16`` logs with ``log 0`` pinned to 0) remain for inversion and
  powers, which are off the sharing hot path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.gf.gf256 import _EXP, _LOG, GF256_FIELD

__all__ = [
    "EXP_TABLE",
    "LOG_TABLE",
    "MUL_TABLE",
    "MUL_ROWS",
    "gf_mul_vec",
    "gf_div_vec",
    "gf_inv_vec",
    "gf_pow_vec",
    "eval_poly_at_points",
    "lagrange_coeffs_at",
    "lagrange_interpolate",
]

#: Doubled antilog table: indices 0..508 cover any sum of two logs.
EXP_TABLE = np.array(_EXP + _EXP, dtype=np.uint8)

#: Log table with the (undefined) log of zero pinned to 0; callers mask
#: zero operands themselves.
LOG_TABLE = np.array([0] + _LOG[1:], dtype=np.int16)

#: Full product table, ``MUL_TABLE[a, b] == a * b`` in GF(2^8).
MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
MUL_TABLE[1:, 1:] = EXP_TABLE[LOG_TABLE[1:, None] + LOG_TABLE[None, 1:]]
MUL_TABLE.setflags(write=False)

#: ``MUL_ROWS[c]`` is ``MUL_TABLE[c]`` as bytes: the ``bytes.translate``
#: table that multiplies every byte of a string by ``c``.
MUL_ROWS = tuple([row.tobytes() for row in MUL_TABLE])


def _as_u8(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.dtype != np.uint8:
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError("GF(256) elements must be integers")
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ValueError("GF(256) elements must be in 0..255")
        arr = arr.astype(np.uint8)
    return arr


def _as_point(x) -> int:
    """A single evaluation point as a Python int in 0..255."""
    if not isinstance(x, (int, np.integer)) or not 0 <= x <= 255:
        raise ValueError(f"evaluation point must be an integer in 0..255, got {x!r}")
    return int(x)


def _as_points(xs) -> Tuple[int, ...]:
    """Evaluation points (or interpolation nodes) as Python ints in 0..255.

    A list, tuple or range of Python ints is checked in Python, which is
    cheaper than a round trip through numpy for the few points a share
    group has; anything else goes through :func:`_as_u8`.
    """
    if isinstance(xs, (list, tuple, range)):
        points = tuple(xs)
        for x in points:
            if type(x) is not int or not 0 <= x <= 255:
                return tuple([_as_point(x) for x in points])
        return points
    return tuple(np.atleast_1d(_as_u8(xs)).tolist())


def _is_byte_rows(a) -> bool:
    return isinstance(a, (list, tuple)) and bool(a) and isinstance(a[0], (bytes, bytearray))


def _as_rows(a) -> Sequence[bytes]:
    """``a`` as a sequence of equal-length byte strings, one per row.

    ``a`` is either such a sequence already, returned as it is once the
    lengths agree, or a 2-D array of field elements, split into its rows.
    """
    if _is_byte_rows(a):
        size = len(a[0])
        for row in a:
            if not isinstance(row, (bytes, bytearray)) or len(row) != size:
                raise ValueError("byte rows must all be byte strings of one length")
        return a
    arr = _as_u8(a)
    if arr.ndim != 2:
        raise ValueError("rows must be a 2-D array or a list of byte strings")
    return [row.tobytes() for row in arr]


def gf_mul_vec(a, b) -> np.ndarray:
    """Element-wise GF(2^8) product of two broadcastable uint8 arrays."""
    return MUL_TABLE[_as_u8(a), _as_u8(b)]


def gf_inv_vec(a) -> np.ndarray:
    """Element-wise multiplicative inverse; raises on any zero element."""
    a = _as_u8(a)
    if np.any(a == 0):
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return EXP_TABLE[255 - LOG_TABLE[a]]


def gf_div_vec(a, b) -> np.ndarray:
    """Element-wise GF(2^8) quotient ``a / b``; raises if ``b`` has zeros."""
    b = _as_u8(b)
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero in GF(256)")
    return MUL_TABLE[_as_u8(a), gf_inv_vec(b)]


def gf_pow_vec(base, exponent) -> np.ndarray:
    """Element-wise ``base ** exponent`` with non-negative integer exponents.

    Follows the usual field conventions: ``x ** 0 == 1`` for every ``x``
    (including 0) and ``0 ** e == 0`` for ``e > 0``.
    """
    base = _as_u8(base)
    exponent = np.asarray(exponent)
    if exponent.size and exponent.dtype.kind not in "iu":
        raise ValueError("exponents must be integers")
    if exponent.size and exponent.min() < 0:
        raise ValueError("exponents must be non-negative")
    log_pow = (LOG_TABLE[base].astype(np.int64) * exponent) % 255
    out = EXP_TABLE[log_pow]
    out = np.where((base == 0) & (exponent > 0), np.uint8(0), out)
    return np.where(exponent == 0, np.uint8(1), out)


def eval_poly_at_points(coeffs, xs) -> np.ndarray:
    """Evaluate ``n`` byte-wise polynomials at ``m`` points.

    Args:
        coeffs: the ``k`` coefficient rows, constant term first, as a uint8
            array of shape ``(k, n)`` or a list of ``k`` byte strings of
            length ``n``; column ``b`` holds the polynomial for byte
            position ``b``.  A 1-D ``(k,)`` array is a single polynomial
            and yields a ``(m,)`` result.
        xs: the ``m`` evaluation points, integers in 0..255.

    Returns:
        uint8 array of shape ``(m, n)`` (or ``(m,)`` for 1-D ``coeffs``)
        where row ``i`` is the evaluation of every byte polynomial at
        ``xs[i]`` -- i.e. share ``xs[i]`` of the whole batch, by Horner's
        rule with one ``MUL_ROWS[xs[i]]`` translation per coefficient.
    """
    if not _is_byte_rows(coeffs) and np.ndim(coeffs) == 1:
        return eval_poly_at_points(_as_u8(coeffs)[:, None], xs)[:, 0]
    rows = _as_rows(coeffs)
    if not rows:
        raise ValueError("coeffs must have at least one row")
    tables = [MUL_ROWS[x] for x in _as_points(xs)]
    shape = (len(tables), len(rows[0]))
    if len(rows) == 1:
        # A constant polynomial: every point evaluates to the one row.
        return np.frombuffer(bytearray(rows[0] * shape[0]), np.uint8).reshape(shape)
    # Every point's accumulator starts at the leading coefficient.
    acc = [rows[-1]] * shape[0]
    for j in range(len(rows) - 2, -1, -1):
        products = b"".join([row.translate(table) for row, table in zip(acc, tables)])
        out = np.frombuffer(products, np.uint8).reshape(shape) ^ np.frombuffer(
            rows[j], np.uint8
        )
        if j:
            acc = [row.tobytes() for row in out]
    return out


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


def lagrange_coeffs_at(xs, x: int = 0) -> np.ndarray:
    """Lagrange basis coefficients ``l_i(x)`` for nodes ``xs``.

    Returns a fresh uint8 vector ``c`` with ``c[i] = prod_{j != i}
    (x - x_j) / (x_i - x_j)``, so that the interpolating polynomial through
    ``(x_i, y_i)`` evaluates at ``x`` to ``xor_i c[i] * y_i``.  Nodes must
    be distinct, at least one, and ``x`` an integer in 0..255; when ``x``
    is a node the result is that node's indicator vector.
    """
    return np.array(_lagrange_basis(_as_points(xs), _as_point(x)), dtype=np.uint8)


def lagrange_interpolate(xs, ys, x: int = 0) -> np.ndarray:
    """Interpolate a whole share batch and evaluate at ``x`` in one pass.

    Args:
        xs: the ``t >= 1`` distinct interpolation nodes (share indices).
        ys: the ``t`` share rows, as a uint8 array of shape ``(t, n)`` or a
            list of ``t`` byte strings of length ``n``; row ``i`` is share
            ``xs[i]`` of an ``n``-byte batch.
        x: evaluation point, an integer in 0..255; 0 recovers the Shamir
            secret.

    Returns:
        uint8 array of shape ``(n,)``: the unique degree-<t byte-wise
        polynomial through the shares, evaluated at ``x`` for every byte
        position at once.
    """
    basis = _lagrange_basis(_as_points(xs), _as_point(x))
    rows = _as_rows(ys)
    if len(rows) != len(basis):
        raise ValueError("ys must have one row per node, shape (len(xs), n)")
    out = np.frombuffer(rows[0].translate(MUL_ROWS[basis[0]]), np.uint8).copy()
    for coeff, row in zip(basis[1:], rows[1:]):
        out ^= np.frombuffer(row.translate(MUL_ROWS[coeff]), np.uint8)
    return out
