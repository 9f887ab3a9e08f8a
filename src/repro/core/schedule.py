"""Share schedules (Sec. III-C) and their network properties (Sec. IV-A).

A *share schedule* is a categorical distribution ``p(k, M)`` over the
acceptable parameter pairs

    M = {(k, M) in N x P(C) : 1 <= k <= |M|},

giving the proportion of source symbols sent with threshold ``k`` over the
channel subset ``M``.  Its averages are the real-valued protocol parameters

    κ = E[k]    and    µ = E[|M|],

and the schedule-level privacy/loss/delay are expectation of the subset
formulas under p: ``Z(p) = E[z(k, M)]`` and so on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

import numpy as np

from repro.core.channel import ChannelSet
from repro.core.properties import subset_delay, subset_loss, subset_risk

#: A schedule atom: (threshold k, channel subset M as a frozenset of indices).
Pair = Tuple[int, FrozenSet[int]]

#: Probabilities this far below zero / away from one are validation errors;
#: anything smaller is attributed to LP solver floating-point noise.
PROBABILITY_TOLERANCE = 1e-7


def canonical_pair_order(pair: Pair) -> Tuple[int, int, Tuple[int, ...]]:
    """Sort key giving schedules a deterministic iteration order."""
    k, members = pair
    return (len(members), k, tuple(sorted(members)))


class ShareSchedule:
    """An immutable share schedule over a fixed channel set.

    Probabilities are validated (nonnegative, summing to one, each pair
    satisfying ``1 <= k <= |M|``) and then renormalised exactly, so solver
    round-off in the inputs does not propagate into the model's averages.
    """

    def __init__(self, channels: ChannelSet, probs: Mapping[Pair, float]):
        self._channels = channels
        cleaned: Dict[Pair, float] = {}
        for (k, members), prob in probs.items():
            canonical = channels.validate_subset(members)
            if not 1 <= k <= len(canonical):
                raise ValueError(f"invalid pair (k={k}, |M|={len(canonical)})")
            if prob < -PROBABILITY_TOLERANCE:
                raise ValueError(f"negative probability {prob} for (k={k}, M={sorted(canonical)})")
            if prob <= 0.0:
                continue
            key = (int(k), canonical)
            cleaned[key] = cleaned.get(key, 0.0) + float(prob)
        if not cleaned:
            raise ValueError("a share schedule must have at least one pair with p > 0")
        total = sum(cleaned.values())
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise ValueError(f"schedule probabilities sum to {total}, expected 1")
        self._probs: Dict[Pair, float] = {
            pair: prob / total
            for pair, prob in sorted(cleaned.items(), key=lambda kv: canonical_pair_order(kv[0]))
        }

    # -- constructors --------------------------------------------------------

    @classmethod
    def singleton(cls, channels: ChannelSet, k: int, subset: Iterable[int]) -> "ShareSchedule":
        """The degenerate schedule that always uses ``(k, M)``."""
        return cls(channels, {(k, frozenset(subset)): 1.0})

    @classmethod
    def from_arrays(
        cls,
        channels: ChannelSet,
        pairs: Iterable[Pair],
        probabilities: Iterable[float],
    ) -> "ShareSchedule":
        """Build a schedule from parallel pair/probability sequences.

        This is the natural constructor for LP solutions, where the solver
        returns a dense probability vector over an enumerated pair list.
        """
        return cls(channels, dict(zip(pairs, probabilities)))

    # -- basic accessors -----------------------------------------------------

    @property
    def channels(self) -> ChannelSet:
        return self._channels

    def probability(self, k: int, subset: Iterable[int]) -> float:
        """Return ``p(k, M)`` (zero for pairs outside the support)."""
        return self._probs.get((k, frozenset(subset)), 0.0)

    def support(self) -> Iterator[Tuple[Pair, float]]:
        """Iterate ``((k, M), p)`` over pairs with positive probability."""
        return iter(self._probs.items())

    def __len__(self) -> int:
        return len(self._probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShareSchedule):
            return NotImplemented
        if other._channels != self._channels or set(other._probs) != set(self._probs):
            return False
        return all(abs(other._probs[pair] - p) <= 1e-12 for pair, p in self._probs.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        atoms = ", ".join(
            f"(k={k}, M={sorted(members)}): {p:.4f}"
            for (k, members), p in self._probs.items()
        )
        return f"ShareSchedule({{{atoms}}})"

    # -- model quantities (Sec. III-C / IV-A) --------------------------------

    @property
    def kappa(self) -> float:
        """Average threshold κ = Σ p(k, M) · k."""
        return sum(p * k for (k, _), p in self._probs.items())

    @property
    def mu(self) -> float:
        """Average multiplicity µ = Σ p(k, M) · |M|."""
        return sum(p * len(members) for (_, members), p in self._probs.items())

    def privacy_risk(self) -> float:
        """Schedule privacy risk ``Z(p) = Σ p(k, M) z(k, M)``."""
        return sum(
            p * subset_risk(self._channels, k, members)
            for (k, members), p in self._probs.items()
        )

    def loss(self) -> float:
        """Schedule loss ``L(p) = Σ p(k, M) l(k, M)``."""
        return sum(
            p * subset_loss(self._channels, k, members)
            for (k, members), p in self._probs.items()
        )

    def delay(self) -> float:
        """Schedule delay ``D(p) = Σ p(k, M) d(k, M)``."""
        return sum(
            p * subset_delay(self._channels, k, members)
            for (k, members), p in self._probs.items()
        )

    # -- rate-related quantities (Sec. IV-C / IV-D) ---------------------------

    def channel_usage(self) -> np.ndarray:
        """Per-channel usage: the proportion of symbols whose M contains i.

        This is the left-hand side of the maximum-rate constraint in the
        Sec. IV-D linear program.
        """
        usage = np.zeros(self._channels.n)
        for (_, members), p in self._probs.items():
            for i in members:
                usage[i] += p
        return usage

    def max_symbol_rate(self) -> float:
        """The highest source-symbol rate this schedule can sustain.

        Sending symbols at rate R puts load ``R * usage_i`` shares per unit
        time on channel i, which must not exceed ``r_i``; the binding
        channel determines the achievable rate.
        """
        usage = self.channel_usage()
        rates = self._channels.rates
        bounds = [rates[i] / usage[i] for i in range(self._channels.n) if usage[i] > 0.0]
        return min(bounds)
