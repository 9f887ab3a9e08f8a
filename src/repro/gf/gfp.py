"""Prime fields GF(p).

Used by the Blakley hyperplane scheme (which needs a field large enough to
hold a whole secret block as a single element) and by tests as an
independent field implementation against which the generic polynomial and
sharing code is cross-checked.
"""

from __future__ import annotations

from repro.gf.field import Field


def is_prime(n: int) -> bool:
    """Miller-Rabin test with the twelve prime witnesses 2..37.

    Exact for n < 318665857834031151167461 (about 3.18e23): that number,
    399165290221 * 798330580441, is the smallest composite passing all
    twelve witnesses, and this function accepts it.  Above the bound the
    answer means "strong probable prime to these twelve bases": a prime is
    always accepted, a composite only if it is a strong pseudoprime to
    every one of them.  The moduli this library builds lie above the
    bound (``BlakleyScheme``'s default is the first such probable prime
    above 256**65, 521 bits), so their primality is probable, not proven.
    """
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Return the smallest prime >= n."""
    if n <= 2:
        return 2
    candidate = n | 1  # first odd >= n
    while not is_prime(candidate):
        candidate += 2
    return candidate


class PrimeField(Field):
    """The field of integers modulo a prime ``p``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse modulo {self.p}")
        # Fermat's little theorem; pow() is fast C-level modular exponentiation.
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))
