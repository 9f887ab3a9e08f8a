"""Finite-field arithmetic substrate.

Secret sharing schemes (Shamir, Blakley) operate over finite fields.  This
package implements the two field families the reproduction needs, from
scratch and with no external dependencies:

* :class:`~repro.gf.gf256.GF256` -- the binary extension field GF(2^8) with
  table-driven multiplication, used for byte-oriented Shamir sharing (each
  byte of a datagram is shared independently).
* :class:`~repro.gf.gfp.PrimeField` -- prime fields GF(p), used by the
  Blakley hyperplane scheme and by property tests that cross-check Shamir
  over an independent field implementation.

Polynomial utilities (Horner evaluation, Lagrange interpolation) live in
:mod:`repro.gf.poly` and are generic over any field implementing the
:class:`~repro.gf.field.Field` interface.

The scalar GF(2^8) + polynomial path is the *reference oracle* and the
element-wise field API; the hot path used by the sharing schemes is
:mod:`repro.gf.batch`, whose ``bytes.translate`` kernels evaluate and
interpolate whole datagram batches, given as byte rows, at once and are
bit-identical to the scalar oracle by construction (and by test:
``tests/test_sharing_batch_equiv.py``).
"""

from repro.gf.batch import eval_poly_at_points
from repro.gf.field import Field
from repro.gf.gf256 import GF256
from repro.gf.gfp import PrimeField
from repro.gf.poly import (
    Polynomial,
    lagrange_interpolate,
    lagrange_interpolate_at,
)

__all__ = [
    "Field",
    "GF256",
    "PrimeField",
    "Polynomial",
    "lagrange_interpolate",
    "lagrange_interpolate_at",
    "eval_poly_at_points",
]
