"""Common interface for threshold secret sharing schemes.

A *(k, m) threshold scheme* splits a secret into ``m`` shares such that any
``k`` of them reconstruct the secret and any ``k - 1`` reveal nothing
(information-theoretically).  The paper's protocol model (Sec. III-C) treats
the scheme as a black box with exactly this contract, so the protocol code
is written against this interface.
"""

from __future__ import annotations

import abc
from collections import namedtuple
from typing import Optional, Protocol, Sequence

import numpy as np


class ReconstructionError(Exception):
    """Raised when a set of shares cannot reconstruct a secret.

    Typical causes: fewer than ``k`` shares supplied, duplicate share
    indices, or shares of inconsistent length.
    """


class ByteSource(Protocol):
    """Where a scheme draws its share randomness: ``bytes(n)`` uniform bytes.

    A numpy ``Generator`` is one (tests, MICSS, benchmarks); the sender
    passes a :class:`repro.netsim.rng.RandomBytes`, which serves the same
    bytes from block draws.
    """

    def bytes(self, n: int) -> bytes: ...


class Share(namedtuple("Share", ["index", "data", "k", "m"])):
    """One share of a secret: an immutable record, checked when built.

    Attributes:
        index: share index in ``1..m`` (the x-coordinate for Shamir; the
            hyperplane id for Blakley).  Index 0 is reserved: for Shamir it
            is the secret itself and must never be issued as a share.
        data: the share payload.
        k: threshold used when the secret was split.
        m: multiplicity used when the secret was split.
    """

    __slots__ = ()

    # The taint analysis models the constructor from these annotations.
    index: int
    data: bytes
    k: int
    m: int

    def __new__(cls, index: int, data: bytes, k: int, m: int) -> "Share":
        if not 1 <= k <= m:
            raise ValueError(f"invalid threshold parameters k={k}, m={m}")
        if not 1 <= index <= m:
            raise ValueError(f"share index {index} outside 1..{m}")
        return tuple.__new__(cls, (index, data, k, m))

    def __repr__(self) -> str:
        # Share material must not leak through logs or pytest output;
        # describe the payload instead of dumping it (docs/TAINT.md).
        from repro.redact import redact_bytes

        return (
            f"Share(index={self.index}, data={redact_bytes(self.data)}, "
            f"k={self.k}, m={self.m})"
        )


def validate_parameters(k: int, m: int) -> None:
    """Check the threshold-scheme parameter ordering ``1 <= k <= m``.

    Raises:
        ValueError: if the parameters are out of range.
    """
    if not isinstance(k, (int, np.integer)) or not isinstance(m, (int, np.integer)):
        raise ValueError("k and m must be integers")
    if not 1 <= k <= m:
        raise ValueError(f"threshold parameters must satisfy 1 <= k <= m, got k={k}, m={m}")


def check_share_group(shares: Sequence[Share], k: Optional[int] = None) -> int:
    """Validate a group of shares for reconstruction and return the threshold.

    Ensures the shares agree on (k, m), have distinct indices (each share
    checked its own index against its m when built), and that at least
    ``k`` of them are present.

    Args:
        shares: candidate shares of a single secret.
        k: expected threshold; taken from the shares when ``None``.

    Returns:
        The threshold ``k`` the shares were produced with.

    Raises:
        ReconstructionError: if the group is inconsistent or too small.
    """
    if not shares:
        raise ReconstructionError("no shares supplied")
    first = shares[0]
    threshold = first.k if k is None else k
    for share in shares:
        if share.k != first.k or share.m != first.m:
            raise ReconstructionError(
                f"inconsistent parameters among shares: ({share.k},{share.m}) vs ({first.k},{first.m})"
            )
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ReconstructionError(f"duplicate share indices: {sorted(indices)}")
    if len(shares) < threshold:
        raise ReconstructionError(f"need at least {threshold} shares, got {len(shares)}")
    return threshold


class SecretSharingScheme(abc.ABC):
    """Abstract (k, m) threshold secret sharing scheme over byte secrets."""

    #: Human-readable scheme name (used in wire headers and reports).
    name: str = "abstract"

    @abc.abstractmethod
    def split(
        self,
        secret: bytes,
        k: int,
        m: int,
        rng: ByteSource,
    ) -> "list[Share]":
        """Split ``secret`` into ``m`` shares with threshold ``k``.

        Args:
            secret: the secret payload.
            k: number of shares required for reconstruction.
            m: number of shares to generate; ``1 <= k <= m``.
            rng: source of randomness for the share material, drawn only
                through ``rng.bytes(n)``.  Callers (protocol, tests)
                control determinism through this.

        Returns:
            ``m`` shares with indices ``1..m``.
        """

    @abc.abstractmethod
    def reconstruct(self, shares: Sequence[Share]) -> bytes:
        """Recover the secret from at least ``k`` shares.

        Raises:
            ReconstructionError: if the shares are insufficient or
                inconsistent.
        """

    def supports(self, k: int, m: int) -> bool:
        """Whether this scheme can operate with the given parameters.

        Most schemes support any ``1 <= k <= m`` (up to an index limit);
        the XOR perfect scheme only supports ``k == m``.
        """
        try:
            validate_parameters(k, m)
        except ValueError:
            return False
        return True

    def split_many(
        self,
        secrets: Sequence[bytes],
        k: int,
        m: int,
        rng: ByteSource,
    ) -> "list[list[Share]]":
        """Split a batch of secrets; element ``i`` is the shares of ``secrets[i]``.

        The default draws randomness per secret in order, so it is
        bit-identical to looping over :meth:`split` with the same rng.
        Vectorized schemes override this to amortize the field arithmetic
        across the whole batch while preserving that exact draw order.
        """
        return [self.split(secret, k, m, rng) for secret in secrets]

    def reconstruct_many(self, groups: "Sequence[Sequence[Share]]") -> "list[bytes]":
        """Reconstruct many share groups; output order matches input order.

        Same bit-identical contract as :meth:`split_many`: overrides may
        batch the arithmetic but must return exactly what a per-group
        :meth:`reconstruct` loop would.
        """
        return [self.reconstruct(group) for group in groups]
