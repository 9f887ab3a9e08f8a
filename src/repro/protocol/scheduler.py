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

Both draw through :func:`_draw`, which bisects a CDF built ahead of time
exactly as numpy's ``Generator.choice(n, p=probs)`` builds it per call.  A
draw therefore takes the same single ``random()`` and makes the same pick
as ``rng.choice`` would, so seeded runs are unchanged, without numpy's
per-call validation and set-up.  The dynamic sampler's mixture depends on
(κ, µ) alone, so its atoms and CDF are built once per (κ, µ) and shared by
every sampler with that pair (:func:`_mixture`); an explicit schedule's CDF
is built once per scheduler.

A single pick takes no draw.  So a dynamic sampler binds its stream's
``random`` only when its mixture has more than one atom: binding seeds a
registry stream (:mod:`repro.netsim.rng`), which then counts as set-up,
and a single-atom sampler's stream is never seeded at all.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple, TypeVar

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


@lru_cache(maxsize=1024)
def _mixture(kappa: float, mu: float) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[float, ...]]:
    """The (k, m) atoms of (κ, µ)'s :func:`fractional_atoms` mixture and
    their draw CDF, as tuples so the samplers sharing them cannot alter
    them.  An invalid pair raises ``ValueError``, and nothing is cached."""
    atoms = fractional_atoms(kappa, mu)
    return tuple([pair for pair, _ in atoms]), tuple(_choice_cdf([p for _, p in atoms]))


def _draw(
    picks: Sequence[_Pick], cdf: Sequence[float], random: Optional[Callable[[], float]]
) -> _Pick:
    """``picks[rng.choice(len(picks), p=probs)]``, from one ``random()``.

    ``random`` is the stream's bound ``random``; a single pick takes no
    draw at all and may pass None.
    """
    if len(picks) == 1:
        return picks[0]
    return picks[bisect_right(cdf, random())]


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
    satisfying ``k <= m``.  Deterministic when κ and µ are both integers:
    a single atom takes no draw, and its stream is never touched.  The
    mixture's CDF is built once per (κ, µ); each draw bisects it.
    """

    def __init__(self, kappa: float, mu: float, rng: np.random.Generator):
        self.kappa = kappa
        self.mu = mu
        self.rng = rng
        self._pairs, self._cdf = _mixture(kappa, mu)
        self._random = rng.random if len(self._pairs) > 1 else None

    def sample(self) -> Tuple[int, int, Optional[FrozenSet[int]]]:
        k, m = _draw(self._pairs, self._cdf, self._random)
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
        k, members = _draw(self._pairs, self._cdf, self.rng.random)
        return k, len(members), members
