"""Per-symbol parameter selection (the share schedule, operationally).

Two strategies, matching the paper's Sec. V discussion:

* :class:`DynamicParameterSampler` -- ReMICSS's approach: only the integer
  pair (k, m) is decided per symbol (sampled so the averages are exactly
  κ and µ, via the Theorem-5 atom mixture); *which* m channels carry the
  shares is left to write-readiness at send time ("the first m channels
  ready for writing").
* :class:`ExplicitScheduler` -- the model-faithful alternative: draw the
  full (k, M) pair from an explicit :class:`~repro.core.schedule.ShareSchedule`
  (typically an LP-optimal one).  Used for ablations comparing the dynamic
  simplification against the optimum it approximates.

Both draw through :func:`_draw`, which bisects a CDF built once at
construction exactly as numpy's ``Generator.choice(n, p=probs)`` builds it
per call.  A draw therefore takes the same single ``random()`` and makes the
same pick as ``rng.choice`` would, so seeded runs are unchanged, without
numpy's per-call validation and set-up.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from itertools import accumulate
from typing import FrozenSet, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.program import fractional_atoms
from repro.core.schedule import ShareSchedule

_Pick = TypeVar("_Pick")


def _choice_cdf(weights: Sequence[float]) -> List[float]:
    """The CDF ``rng.choice(n, p=weights / sum(weights))`` searches, bit for bit.

    numpy takes the cumulative sum of ``p`` (left to right, as
    ``accumulate`` adds) and divides it by its last entry, so the final
    entry is exactly 1.0 and every ``random()`` in [0, 1) lands on a pick.
    """
    probs = np.array(weights, dtype=float)
    cdf = list(accumulate((probs / probs.sum()).tolist()))
    return [c / cdf[-1] for c in cdf]


def _draw(picks: Sequence[_Pick], cdf: List[float], rng: np.random.Generator) -> _Pick:
    """``picks[rng.choice(len(picks), p=probs)]``, from one ``random()``.

    A single pick takes no draw at all.
    """
    if len(picks) == 1:
        return picks[0]
    return picks[bisect_right(cdf, rng.random())]


class ParameterSampler(abc.ABC):
    """Per-symbol source of protocol parameters."""

    @abc.abstractmethod
    def sample(self) -> Tuple[int, int, Optional[FrozenSet[int]]]:
        """Return ``(k, m, M)`` for the next symbol.

        ``M`` is ``None`` for dynamic scheduling (the sender will pick the
        first m ready channels); otherwise it is the exact channel subset
        to use, with ``|M| == m``.
        """


class DynamicParameterSampler(ParameterSampler):
    """Sample integer (k, m) with exact long-run averages (κ, µ).

    Uses the :func:`repro.core.program.fractional_atoms` mixture: at most
    four integer atoms whose expectation is exactly (κ, µ), every atom
    satisfying ``k <= m``.  Deterministic when κ and µ are both integers.
    The mixture's CDF is built once, here; each draw bisects it.
    """

    def __init__(self, kappa: float, mu: float, rng: np.random.Generator):
        self.kappa = kappa
        self.mu = mu
        self.rng = rng
        atoms = fractional_atoms(kappa, mu)
        self._pairs: List[Tuple[int, int]] = [pair for pair, _ in atoms]
        self._cdf = _choice_cdf([p for _, p in atoms])

    def sample(self) -> Tuple[int, int, Optional[FrozenSet[int]]]:
        k, m = _draw(self._pairs, self._cdf, self.rng)
        return k, m, None


class ExplicitScheduler(ParameterSampler):
    """Draw full (k, M) pairs from an explicit share schedule.

    The schedule's CDF is built once, here; each draw bisects it.
    """

    def __init__(self, schedule: ShareSchedule, rng: np.random.Generator):
        self.schedule = schedule
        self.rng = rng
        support = list(schedule.support())
        self._pairs = [pair for pair, _ in support]
        self._cdf = _choice_cdf([p for _, p in support])

    def sample(self) -> Tuple[int, int, Optional[FrozenSet[int]]]:
        k, members = _draw(self._pairs, self._cdf, self.rng)
        return k, len(members), members
