"""Threshold secret sharing schemes.

This package implements, from scratch, the secret sharing substrate that the
paper's protocol model builds on (Sec. II-B and III-C):

* :class:`~repro.sharing.shamir.ShamirScheme` -- Shamir's polynomial
  threshold scheme over GF(2^8), shared byte-wise so that every share is the
  same size as the secret (the ``H(Y) = H(X)`` optimal case the model
  assumes).  This is the scheme ReMICSS uses.
* :class:`~repro.sharing.xor.XorScheme` -- the (n, n) perfect scheme built
  from one-time-pad XOR, the scheme the MICSS baseline is limited to.
* :class:`~repro.sharing.blakley.BlakleyScheme` -- Blakley's hyperplane
  scheme over a prime field, included because the paper grounds its model in
  Blakley's "courier mode" (Sec. II-B); it demonstrates that the protocol is
  agnostic to which threshold scheme generates the shares.

All schemes implement :class:`~repro.sharing.base.SecretSharingScheme` and
operate on ``bytes`` secrets, producing :class:`~repro.sharing.base.Share`
objects tagged with their index and the (k, m) parameters used.

The GF(2^8) schemes run on the vectorized kernels in
:mod:`repro.gf.batch` (whole-batch polynomial evaluation and Lagrange
interpolation); ``tests/sharing_oracle.py`` keeps the byte-at-a-time
scalar oracle they are tested bit-identical against, and CI's ledger A/B
job gates their speed end to end.
"""

from repro.sharing.base import (
    ReconstructionError,
    SecretSharingScheme,
    Share,
)
from repro.sharing.blakley import BlakleyScheme
from repro.sharing.ramp import RampScheme
from repro.sharing.shamir import ShamirScheme
from repro.sharing.xor import XorScheme

__all__ = [
    "ReconstructionError",
    "SecretSharingScheme",
    "Share",
    "ShamirScheme",
    "XorScheme",
    "BlakleyScheme",
    "RampScheme",
]
