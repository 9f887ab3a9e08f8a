"""Polynomials over a generic finite field.

Shamir's scheme is "evaluate a random degree-(k-1) polynomial at m points;
interpolate any k of them".  This module provides exactly those two
operations, plus a small :class:`Polynomial` convenience wrapper used by
tests and examples to reason about the algebra directly.

This is the scalar *reference oracle*: the sharing hot path runs on the
byte-row kernels in :mod:`repro.gf.batch`, and the equivalence suite
asserts the batch results match this module byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


from repro.gf.field import Field


@dataclass(frozen=True)
class Polynomial:
    """An immutable polynomial ``coeffs[0] + coeffs[1] x + ...`` over a field.

    Trailing zero coefficients are permitted (degree is computed over the
    trimmed form); the zero polynomial has ``degree == -1``.
    """

    field: Field
    coeffs: Tuple[int, ...]

    def __post_init__(self) -> None:
        for c in self.coeffs:
            self.field.validate(c)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    def __call__(self, x: int) -> int:
        return evaluate(self.field, self.coeffs, x)

    def add(self, other: "Polynomial") -> "Polynomial":
        """Return the polynomial sum."""
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Polynomial(f, tuple(f.add(x, y) for x, y in zip(a, b)))

    def mul(self, other: "Polynomial") -> "Polynomial":
        """Return the polynomial product (schoolbook)."""
        f = self.field
        if self.degree < 0 or other.degree < 0:
            return Polynomial(f, (0,))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Polynomial(f, tuple(out))

    def scale(self, c: int) -> "Polynomial":
        """Return the polynomial multiplied by the scalar ``c``."""
        f = self.field
        return Polynomial(f, tuple(f.mul(c, a) for a in self.coeffs))


def evaluate(field: Field, coeffs: Sequence[int], x: int) -> int:
    """Evaluate ``coeffs[0] + coeffs[1] x + ...`` at ``x`` by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


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


def lagrange_interpolate(
    field: Field,
    points: Sequence[Tuple[int, int]],
) -> Polynomial:
    """Return the unique polynomial of degree < len(points) through ``points``.

    Used by tests and examples that need the full coefficient vector; the
    hot path for reconstruction is :func:`lagrange_interpolate_at`.
    """
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x-coordinates")
    result = Polynomial(field, (0,))
    for i, (xi, yi) in enumerate(points):
        # Build the Lagrange basis polynomial l_i(x), scaled by y_i.
        basis = Polynomial(field, (1,))
        den = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = basis.mul(Polynomial(field, (field.neg(xj), 1)))
            den = field.mul(den, field.sub(xi, xj))
        result = result.add(basis.scale(field.div(yi, den)))
    # Pad/trim to a canonical length for readability.
    return result
