"""Robust (Byzantine-tolerant) reconstruction for Shamir shares.

The protocol model tolerates *lost* shares (m − k of them) but assumes
delivered shares are honest.  The perfectly-secure-message-transmission
line the paper builds on (Dolev et al. [8]; Franklin & Wright [21]) also
tolerates *corrupted* shares: an adversary controlling a channel may modify
the share it carries, not just read it.

Shamir shares are Reed-Solomon code symbols -- byte position p of share i
is ``f_p(i)`` for a degree-(k−1) polynomial -- so corrupted shares are
correctable: with ``n`` shares of which at most ``e`` are corrupt and
``n >= k + 2e``, the true polynomial is the unique one consistent with at
least ``n − e`` of the shares.  This module implements unique decoding by
candidate search: reconstruct from a k-subset, count how many of the n
shares the candidate explains, and accept once the count clears the
``n − e`` bound.  For the protocol's small m (<= n <= 5 channels) this is
exact, simple, and fast; the same interface could host Berlekamp-Welch for
larger m.

The decoder both recovers the secret and *identifies* the corrupted share
indices, which the protocol surfaces as a per-channel integrity signal
(feedable to the risk estimator).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, Sequence

from repro.gf.batch import lagrange_interpolate
from repro.sharing.base import ReconstructionError, Share, check_share_group
from repro.sharing.shamir import _share_rows


def max_correctable_errors(num_shares: int, k: int) -> int:
    """The unique-decoding radius: ``e = (n - k) // 2``."""
    if num_shares < k:
        raise ValueError(f"need at least k={k} shares, got {num_shares}")
    return (num_shares - k) // 2


def max_recoverable_erasures(num_shares: int, k: int) -> int:
    """The erasure radius: ``n - k`` shares whose *positions* are known bad.

    An erasure costs one unit of redundancy where an error costs two --
    authenticated shares (:mod:`repro.protocol.auth`) turn corrupted
    channels into erasures and double the tolerable corruption.
    """
    if num_shares < k:
        raise ValueError(f"need at least k={k} shares, got {num_shares}")
    return num_shares - k


def evaluate_shares_at(shares: Sequence[Share], x: int) -> bytes:
    """Evaluate the Shamir polynomial defined by ``shares`` at point ``x``.

    Batched Lagrange evaluation over all byte positions at once (via
    :mod:`repro.gf.batch`); with ``x = 0`` this is ordinary reconstruction,
    with ``x = j`` it predicts what share j *should* contain -- the
    verification primitive of the robust decoder.
    """
    nodes, rows = _share_rows(shares)
    if len(set(nodes)) != len(nodes):
        raise ReconstructionError(f"duplicate share indices: {sorted(nodes)}")
    return lagrange_interpolate(nodes, rows, x)


@dataclass(frozen=True)
class RobustResult:
    """Outcome of a robust reconstruction.

    Attributes:
        secret: the recovered secret.
        corrupted: indices (share ``index`` values) identified as corrupt.
        agreement: number of shares consistent with the accepted decoding.
    """

    secret: bytes
    corrupted: FrozenSet[int]
    agreement: int

    def __repr__(self) -> str:
        # The recovered plaintext must not leak through logs or pytest
        # output; describe it instead of dumping it (docs/TAINT.md).
        from repro.redact import redact_bytes

        return (
            f"RobustResult(secret={redact_bytes(self.secret)}, "
            f"corrupted={sorted(self.corrupted)}, agreement={self.agreement})"
        )


def robust_reconstruct(shares: Sequence[Share], errors: int = None) -> RobustResult:
    """Recover the secret from shares of which some may be *corrupted*.

    Args:
        shares: delivered shares (all claiming the same (k, m)).
        errors: maximum number of corrupted shares to tolerate; defaults
            to the unique-decoding radius ``(n - k) // 2``.

    Returns:
        The secret plus the identified corrupt share indices.

    Raises:
        ReconstructionError: if no polynomial of degree < k is consistent
            with at least ``n - errors`` of the shares (more corruption
            than the radius, or inconsistent share groups).
        ValueError: if ``errors`` is negative.
    """
    k = check_share_group(shares)
    group = list(shares)
    n = len(group)
    _share_rows(group)  # one payload length, every index a field element
    radius = max_correctable_errors(n, k)
    if errors is None:
        errors = radius
    if errors < 0:
        raise ValueError(f"errors must be non-negative, got {errors}")
    if errors > radius:
        raise ReconstructionError(
            f"cannot tolerate {errors} errors with {n} shares at k={k} "
            f"(radius is {radius})"
        )
    required = n - errors
    # Candidate search over k-subsets.  If at most `errors` shares are bad,
    # some subset is entirely clean and its decoding explains >= required
    # shares; uniqueness of RS decoding makes the first hit the answer.
    for subset in combinations(range(n), k):
        candidate = [group[i] for i in subset]
        consistent = list(subset)
        for i in range(n):
            if i in subset:
                continue
            predicted = evaluate_shares_at(candidate, group[i].index)
            if predicted == group[i].data:
                consistent.append(i)
        if len(consistent) >= required:
            corrupted = frozenset(
                group[i].index for i in range(n) if i not in consistent
            )
            return RobustResult(
                secret=evaluate_shares_at(candidate, 0),
                corrupted=corrupted,
                agreement=len(consistent),
            )
    raise ReconstructionError(
        f"no degree-{k - 1} polynomial explains {required} of {n} shares "
        f"(corruption beyond the decoding radius?)"
    )


def reconstruct_with_erasures(
    shares: Sequence[Share],
    erasures: Iterable[int] = (),
    errors: int = 0,
) -> RobustResult:
    """Recover the secret when some share *positions* are known to be bad.

    Erasure decoding: shares whose ``index`` appears in ``erasures`` are
    excluded up front, so each costs one unit of redundancy instead of the
    two an unlocated error costs -- with ``n`` shares and ``t`` erasures,
    recovery holds whenever ``n - t >= k + 2 * errors``.  With
    ``errors = 0`` (the authenticated-share case, where every surviving
    share carries a verified MAC) that is the full erasure radius
    ``n - k`` of :func:`max_recoverable_erasures`, including the
    ``k = m`` boundary where the error radius is zero.

    Args:
        shares: delivered shares (all claiming the same (k, m)), possibly
            including the erased ones.
        erasures: share ``index`` values known to be corrupt (e.g. failed
            MAC verification).
        errors: additional *unlocated* errors to tolerate among the
            surviving shares (0 when survivors are individually verified).

    Returns:
        The secret plus the corrupt share indices (the erasures, unioned
        with any errors located among the survivors).

    Raises:
        ReconstructionError: if fewer than ``k + 2 * errors`` shares
            survive the erasures, or the survivors are inconsistent.
        ValueError: if ``errors`` is negative.
    """
    if errors < 0:
        raise ValueError(f"errors must be non-negative, got {errors}")
    erased = frozenset(erasures)
    group = [share for share in shares if share.index not in erased]
    if not group:
        raise ReconstructionError("no shares survive the erasures")
    k = check_share_group(group)
    n = len(group)
    if n < k + 2 * errors:
        raise ReconstructionError(
            f"only {n} shares survive {len(erased)} erasures; need "
            f"{k + 2 * errors} for k={k} with {errors} residual errors"
        )
    if errors > 0:
        # Errors may hide among the survivors: fall back to candidate
        # search over the survivors and union the located errors in.
        # Index sets and agreement counts are aggregate facts, not secret
        # bytes (docs/TAINT.md); only `secret` itself stays tainted.
        result = robust_reconstruct(group, errors=errors)
        corrupted = frozenset(result.corrupted | erased)  # taint: declassified
        agreement = int(result.agreement)  # taint: declassified
        return RobustResult(
            secret=result.secret,
            corrupted=corrupted,
            agreement=agreement,
        )
    _share_rows(group)  # one payload length, every index a field element
    candidate = group[:k]
    for extra in group[k:]:
        if evaluate_shares_at(candidate, extra.index) != extra.data:
            raise ReconstructionError(
                f"share {extra.index} disagrees with the erasure decoding "
                f"(unlocated corruption with errors=0)"
            )
    return RobustResult(
        secret=evaluate_shares_at(candidate, 0),
        corrupted=erased,
        agreement=n,
    )


def verify_share(reference: Sequence[Share], share: Share) -> bool:
    """Whether ``share`` lies on the polynomial defined by ``reference``.

    ``reference`` must hold at least k mutually consistent shares.
    """
    k = reference[0].k
    return evaluate_shares_at(list(reference)[:k], share.index) == share.data
