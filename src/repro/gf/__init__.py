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

Horner evaluation lives in :mod:`repro.gf.poly` and is generic over any
field implementing the :class:`~repro.gf.field.Field` interface.

The scalar GF(2^8) field is the element-wise API; the hot path used by the
sharing schemes is :mod:`repro.gf.batch`, whose ``bytes.translate``
kernels evaluate and interpolate whole datagram batches, given as byte
rows, at once.  They are bit-identical by construction, and by test, to
the per-byte oracle in ``tests/sharing_oracle.py``
(``tests/test_sharing_batch_equiv.py``).  Their speed is gated end to end
by the ledger (``testbed_real`` runs 1250-B payloads through them), which
CI runs on the parent commit and on the change in one job.
"""

from repro.gf.batch import eval_poly_at_points
from repro.gf.field import Field
from repro.gf.gf256 import GF256
from repro.gf.gfp import PrimeField

__all__ = [
    "Field",
    "GF256",
    "PrimeField",
    "eval_poly_at_points",
]
