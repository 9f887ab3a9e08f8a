"""Exact perfect-secrecy verification for Shamir's scheme.

Shamir's claim -- any k−1 shares reveal *nothing*, any k reveal
*everything* -- is an exact statement about a finite probability space: a
uniform secret, uniform random coefficients, and deterministic share
evaluation.  For a small field that space can be enumerated outright
(|F|^k outcomes), giving the joint distribution of
``(secret, observed share values)`` with no sampling error.  From it:

* ``I(secret ; shares) = 0``        for any observation of < k shares,
* ``I(secret ; shares) = log2 |F|`` for any observation of ≥ k shares,
* every share marginal is uniform.

These are checked bit-exactly in the test suite (up to floating-point
entropy arithmetic), which vouches for the construction itself.

The production GF(2^8) sharing does not run this module's algebra
(:mod:`repro.gf.poly`): :class:`~repro.sharing.shamir.ShamirScheme` splits
with :func:`repro.gf.batch.eval_poly_at_points` (XOR-Horner over the
product table) and reconstructs with cached Lagrange bases.  The test
suite enumerates that kernel exactly as well: for k ≤ 3 and five shares,
every (secret, coefficient) tuple in GF(2^8)^k goes through the kernel,
and for each secret the shares at any k−1 indices are in bijection with
the coefficients, so they carry exactly zero information; ``reconstruct``
recovers every byte value from every k-subset.  The ramp scheme and the
XOR (n, n) scheme have no exact check yet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple


from repro.gf.field import Field
from repro.gf.poly import evaluate

#: A joint distribution: (secret, observed-share-tuple) -> probability.
Joint = Dict[Tuple[int, Tuple[int, ...]], float]


def joint_distribution(
    field: Field,
    k: int,
    observed_xs: Sequence[int],
) -> Joint:
    """Enumerate the exact joint distribution of secret and observed shares.

    The secret is uniform over the field; the k−1 higher coefficients are
    uniform and independent; share at x is the polynomial evaluation.

    Args:
        field: a small field (the enumeration is |F|^k).
        k: the threshold (polynomial degree k−1).
        observed_xs: the share x-coordinates the adversary sees (nonzero,
            distinct).

    Raises:
        ValueError: for invalid thresholds or observation points.
    """
    if k < 1:
        raise ValueError(f"threshold must be at least 1, got {k}")
    xs = list(observed_xs)
    if len(set(xs)) != len(xs):
        raise ValueError("observation points must be distinct")
    if any(x == 0 or x not in field for x in xs):
        raise ValueError("observation points must be nonzero field elements")
    if field.order**k > 2_000_000:
        raise ValueError(
            f"enumeration of |F|^k = {field.order ** k} outcomes is too large; "
            "use a smaller field or threshold"
        )
    outcome_probability = 1.0 / (field.order**k)
    joint: Joint = {}
    elements = range(field.order)
    for secret in elements:
        for coeffs in itertools.product(elements, repeat=k - 1):
            poly = [secret, *coeffs]
            observed = tuple(evaluate(field, poly, x) for x in xs)
            key = (secret, observed)
            joint[key] = joint.get(key, 0.0) + outcome_probability
    return joint


def entropy(probabilities: Sequence[float]) -> float:
    """Shannon entropy in bits of a probability vector."""
    total = 0.0
    for p in probabilities:
        if p < 0:
            raise ValueError(f"negative probability {p}")
        if p > 0:
            total -= p * math.log2(p)
    return total


def mutual_information(joint: Joint) -> float:
    """``I(secret ; shares)`` in bits, from the exact joint distribution."""
    secret_marginal: Dict[int, float] = {}
    share_marginal: Dict[Tuple[int, ...], float] = {}
    for (secret, shares), p in joint.items():
        secret_marginal[secret] = secret_marginal.get(secret, 0.0) + p
        share_marginal[shares] = share_marginal.get(shares, 0.0) + p
    information = 0.0
    for (secret, shares), p in joint.items():
        if p > 0:
            information += p * math.log2(
                p / (secret_marginal[secret] * share_marginal[shares])
            )
    # Clamp float noise around zero.
    return max(0.0, information)


@dataclass(frozen=True)
class SecrecyReport:
    """Outcome of a full perfect-secrecy verification.

    Attributes:
        field_order: |F| used for the enumeration.
        k: threshold verified.
        m: multiplicity (observation subsets range over 1..m shares).
        secret_entropy: H(secret) = log2 |F|.
        leakage_below_threshold: the largest I(secret; shares) over every
            observation of fewer than k shares (0 for perfect secrecy).
        information_at_threshold: the smallest I(secret; shares) over
            every observation of at least k shares (= H(secret) when any
            k shares determine the secret).
        uniform_marginals: whether every single-share marginal was uniform.
    """

    field_order: int
    k: int
    m: int
    secret_entropy: float
    leakage_below_threshold: float
    information_at_threshold: float
    uniform_marginals: bool

    @property
    def perfectly_secret(self) -> bool:
        """The paper's Sec. II-B property, verified exactly."""
        return (
            self.leakage_below_threshold < 1e-9
            and abs(self.information_at_threshold - self.secret_entropy) < 1e-9
        )


def verify_perfect_secrecy(field: Field, k: int, m: int) -> SecrecyReport:
    """Verify Shamir's secrecy over every observation subset of 1..m shares.

    Args:
        field: a small prime field (enumeration is |F|^k per subset).
        k: threshold.
        m: multiplicity; share points are 1..m.
    """
    if not 1 <= k <= m < field.order:
        raise ValueError(
            f"need 1 <= k <= m < |F|, got k={k}, m={m}, |F|={field.order}"
        )
    secret_entropy = math.log2(field.order)
    worst_leakage = 0.0
    least_information = math.inf
    uniform = True
    for size in range(1, m + 1):
        for xs in itertools.combinations(range(1, m + 1), size):
            joint = joint_distribution(field, k, xs)
            information = mutual_information(joint)
            if size < k:
                worst_leakage = max(worst_leakage, information)
            else:
                least_information = min(least_information, information)
            if size == 1:
                marginal: Dict[Tuple[int, ...], float] = {}
                for (_, shares), p in joint.items():
                    marginal[shares] = marginal.get(shares, 0.0) + p
                expected = 1.0 / field.order
                if any(abs(p - expected) > 1e-9 for p in marginal.values()):
                    uniform = False
    if least_information is math.inf:
        least_information = secret_entropy  # k > m never happens (validated)
    return SecrecyReport(
        field_order=field.order,
        k=k,
        m=m,
        secret_entropy=secret_entropy,
        leakage_below_threshold=worst_leakage,
        information_at_threshold=least_information,
        uniform_marginals=uniform,
    )
