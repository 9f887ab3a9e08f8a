"""Abstract interface for finite fields.

Field elements are represented as plain Python ``int`` values in
``range(order)``; the field object itself carries the arithmetic.  This
keeps share material compact (ints and bytes, not wrapper objects) while
still letting the sharing schemes be generic over the field.
"""

from __future__ import annotations

import abc


class Field(abc.ABC):
    """A finite field whose elements are the integers ``0..order-1``.

    Concrete subclasses define the four basic operations plus inversion.
    Subtraction and division are derived.  All operations must accept and
    return canonical representatives (ints in ``range(order)``).
    """

    #: Number of elements in the field.
    order: int

    @abc.abstractmethod
    def add(self, a: int, b: int) -> int:
        """Return ``a + b`` in the field."""

    @abc.abstractmethod
    def neg(self, a: int) -> int:
        """Return the additive inverse of ``a``."""

    @abc.abstractmethod
    def mul(self, a: int, b: int) -> int:
        """Return ``a * b`` in the field."""

    @abc.abstractmethod
    def inv(self, a: int) -> int:
        """Return the multiplicative inverse of ``a``.

        Raises:
            ZeroDivisionError: if ``a`` is the zero element.
        """

    def sub(self, a: int, b: int) -> int:
        """Return ``a - b`` in the field."""
        return self.add(a, self.neg(b))

    def div(self, a: int, b: int) -> int:
        """Return ``a / b`` in the field.

        Raises:
            ZeroDivisionError: if ``b`` is the zero element.
        """
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """Return ``a ** e`` by square-and-multiply.

        Negative exponents are supported for nonzero ``a``.
        """
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def __contains__(self, a: object) -> bool:
        return isinstance(a, int) and 0 <= a < self.order

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(order={self.order})"
