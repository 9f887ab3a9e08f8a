"""Polynomial evaluation over a generic finite field.

Shamir's scheme is "evaluate a random degree-(k-1) polynomial at m points;
interpolate any k of them".  This module keeps the scalar first half,
Horner evaluation over any :class:`~repro.gf.field.Field`, which
:mod:`repro.analysis.secrecy` uses to enumerate share distributions.

The sharing hot path runs on the byte-row kernels in :mod:`repro.gf.batch`.
The scalar oracle they are tested against byte for byte (per-byte split
and Lagrange interpolation) is ``tests/sharing_oracle.py``; their speed
is gated by CI's ledger A/B job, not against this module.
"""

from __future__ import annotations

from typing import Sequence

from repro.gf.field import Field


def evaluate(field: Field, coeffs: Sequence[int], x: int) -> int:
    """Evaluate ``coeffs[0] + coeffs[1] x + ...`` at ``x`` by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc
