"""Linear programs over share schedules (Sec. IV-B, IV-D, IV-E).

Given κ and µ, the paper finds property-optimal share schedules by linear
programming over the probabilities ``p(k, M)``:

* the **free** program (Sec. IV-B) constrains only normalisation and the
  two averages κ and µ;
* the **maximum-rate** program (Sec. IV-D) replaces the µ constraint with
  one per-channel utilisation equality
  ``Σ_{M ∋ i} p(k, M) = min(r_i / R_C, 1)``, which forces the schedule to
  sustain the Theorem-4 optimal rate while optimising the chosen property;
* the **limited** variant (Sec. IV-E) restricts the support to
  ``M' = {(k, M) : k >= ⌊κ⌋, |M| >= ⌊µ⌋}`` so that *every* symbol tolerates
  ⌊κ⌋−1 interceptions, matching the MICSS/courier threat model.  Theorem 5
  (existence of limited schedules for any valid κ, µ) is realised
  constructively in :func:`theorem5_schedule`.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.channel import ChannelSet
from repro.core.combinatorics import subsets_of
from repro.core.properties import subset_delay, subset_loss, subset_risk
from repro.core.rate import optimal_channel_usage
from repro.core.schedule import Pair, ShareSchedule, canonical_pair_order
from repro.lp import LinearProgram, solve


class Objective(enum.Enum):
    """Which network property the program minimises."""

    PRIVACY = "privacy"  # minimise Z(p)
    LOSS = "loss"  # minimise L(p)
    DELAY = "delay"  # minimise D(p)


_SUBSET_FORMULA: "Dict[Objective, Callable[[ChannelSet, int, frozenset], float]]" = {
    Objective.PRIVACY: subset_risk,
    Objective.LOSS: subset_loss,
    Objective.DELAY: subset_delay,
}


def schedule_pairs(channels: ChannelSet) -> List[Pair]:
    """Enumerate the acceptable pairs ``M = {(k, M) : 1 <= k <= |M|}``.

    Deterministically ordered (by subset size, then k, then members) so LP
    variable indices are stable across runs.
    """
    pairs = [
        (k, members)
        for members in subsets_of(range(channels.n), min_size=1)
        for k in range(1, len(members) + 1)
    ]
    pairs.sort(key=canonical_pair_order)
    return pairs


def limited_pairs(channels: ChannelSet, kappa: float, mu: float) -> List[Pair]:
    """The limited pair set M' of Sec. IV-E for parameters κ and µ.

    Every retained pair has ``k >= ⌊κ⌋`` and ``|M| >= ⌊µ⌋``, guaranteeing
    that an adversary must compromise at least ⌊κ⌋ channels to learn any
    symbol (the MICSS/courier threat model).
    """
    _validate_kappa_mu(channels, kappa, mu)
    k_floor = math.floor(kappa)
    m_floor = math.floor(mu)
    return [
        (k, members)
        for (k, members) in schedule_pairs(channels)
        if k >= k_floor and len(members) >= m_floor
    ]


def _validate_kappa_mu(channels: ChannelSet, kappa: float, mu: float) -> None:
    if not 1.0 <= kappa <= mu <= channels.n + 1e-12:
        raise ValueError(
            f"parameters must satisfy 1 <= κ <= µ <= n={channels.n}, "
            f"got κ={kappa}, µ={mu}"
        )


def build_program(
    channels: ChannelSet,
    objective: Objective,
    kappa: float,
    mu: float,
    at_max_rate: bool = False,
    limited: bool = False,
) -> Tuple[LinearProgram, List[Pair]]:
    """Build the Sec. IV-B (or IV-D) linear program.

    Args:
        channels: the channel set C.
        objective: which property to minimise.
        kappa: target average threshold κ.
        mu: target average multiplicity µ.
        at_max_rate: when True, add the per-channel utilisation equalities
            of Sec. IV-D so the schedule sustains the optimal rate R_C(µ)
            (the explicit µ constraint is then implied and omitted, exactly
            as in the paper's program).
        limited: when True, restrict the support to the M' pairs of
            Sec. IV-E.

    Returns:
        The standard-form LP and the pair list indexing its variables.
    """
    _validate_kappa_mu(channels, kappa, mu)
    pairs = limited_pairs(channels, kappa, mu) if limited else schedule_pairs(channels)
    formula = _SUBSET_FORMULA[objective]
    cost = np.array([formula(channels, k, members) for k, members in pairs])

    rows: List[np.ndarray] = []
    rhs: List[float] = []
    # Normalisation: Σ p = 1.
    rows.append(np.ones(len(pairs)))
    rhs.append(1.0)
    # Average threshold: Σ p k = κ.
    rows.append(np.array([float(k) for k, _ in pairs]))
    rhs.append(kappa)
    if at_max_rate:
        # Per-channel utilisation at the optimal rate (Sec. IV-D); these
        # equalities sum to the µ constraint by Theorem 3.
        usage = optimal_channel_usage(channels, mu)
        for i in range(channels.n):
            rows.append(np.array([1.0 if i in members else 0.0 for _, members in pairs]))
            rhs.append(float(usage[i]))
    else:
        # Average multiplicity: Σ p |M| = µ.
        rows.append(np.array([float(len(members)) for _, members in pairs]))
        rhs.append(mu)

    names = tuple(f"p(k={k},M={{{','.join(map(str, sorted(m)))}}})" for k, m in pairs)
    program = LinearProgram(c=cost, a_eq=np.vstack(rows), b_eq=np.array(rhs), names=names)
    return program, pairs


def optimal_schedule(
    channels: ChannelSet,
    objective: Objective,
    kappa: float,
    mu: float,
    at_max_rate: bool = False,
    limited: bool = False,
) -> ShareSchedule:
    """Solve the Sec. IV-B / IV-D program and return the optimal schedule.

    Raises:
        repro.lp.InfeasibleError: if no schedule satisfies the constraints
            (possible for limited + at_max_rate combinations).
    """
    program, pairs = build_program(
        channels, objective, kappa, mu, at_max_rate=at_max_rate, limited=limited
    )
    solution = solve(program)
    return ShareSchedule.from_arrays(channels, pairs, solution.x)


def optimal_property_value(
    channels: ChannelSet,
    objective: Objective,
    kappa: float,
    mu: float,
    at_max_rate: bool = False,
    limited: bool = False,
) -> float:
    """The optimal Z(p), L(p) or D(p) value for the given constraints."""
    program, _ = build_program(
        channels, objective, kappa, mu, at_max_rate=at_max_rate, limited=limited
    )
    return solve(program).objective


def fractional_atoms(kappa: float, mu: float) -> List[Tuple[Tuple[int, int], float]]:
    """Mix integer (k, m) pairs so that E[k] = κ and E[m] = µ exactly.

    This is the combinatorial core of Theorem 5 (and of the protocol's
    per-symbol parameter sampling): at most four atoms with k in
    {⌊κ⌋, ⌈κ⌉} and m in {⌊µ⌋, ⌈µ⌉}, every atom satisfying ``k <= m`` and
    ``k >= ⌊κ⌋``, ``m >= ⌊µ⌋`` (so every atom lies in the limited set M').

    Returns:
        List of ``((k, m), probability)`` with positive probabilities
        summing to one.
    """
    if not 1.0 <= kappa <= mu:
        raise ValueError(f"parameters must satisfy 1 <= κ <= µ, got κ={kappa}, µ={mu}")
    k_floor, k_frac = math.floor(kappa), kappa - math.floor(kappa)
    m_floor, m_frac = math.floor(mu), mu - math.floor(mu)
    k_ceil = k_floor if k_frac == 0 else k_floor + 1
    m_ceil = m_floor if m_frac == 0 else m_floor + 1

    atoms: Dict[Tuple[int, int], float] = {}

    def add(k: int, m: int, p: float) -> None:
        if p > 0.0:
            atoms[(k, m)] = atoms.get((k, m), 0.0) + p

    if k_ceil <= m_floor:
        # Independent mixing across the two coordinates.
        for k, pk in ((k_floor, 1.0 - k_frac), (k_ceil, k_frac)):
            for m, pm in ((m_floor, 1.0 - m_frac), (m_ceil, m_frac)):
                add(k, m, pk * pm)
    else:
        # κ and µ lie in the same unit cell: ⌊κ⌋ = ⌊µ⌋ and κ <= µ implies
        # k_frac <= m_frac, so this three-atom mixture is a valid
        # distribution with the exact averages (the corner (⌈κ⌉, ⌊µ⌋)
        # would violate k <= m and is pinned out of the support).
        add(k_floor, m_floor, 1.0 - m_frac)
        add(k_floor, m_ceil, m_frac - k_frac)
        add(k_ceil, m_ceil, k_frac)
    return sorted(atoms.items())


def theorem5_schedule(
    channels: ChannelSet,
    kappa: float,
    mu: float,
    subset_chooser: "Callable[[int], Sequence[int]]" = None,
) -> ShareSchedule:
    """The constructive proof of Theorem 5: a limited schedule hitting (κ, µ).

    Mixes at most four atoms with k in {⌊κ⌋, ⌈κ⌉} and |M| in {⌊µ⌋, ⌈µ⌉},
    every one of which lies in M', with weights chosen so the averages are
    exactly κ and µ.  When ⌈κ⌉ <= ⌊µ⌋ the two coordinates mix
    independently; otherwise κ and µ share a unit cell and a three-atom
    mixture is used (the ``k <= |M|`` ordering then pins the corner
    (⌈κ⌉, ⌊µ⌋) out of the support).

    Args:
        channels: the channel set.
        kappa: target average threshold.
        mu: target average multiplicity.
        subset_chooser: maps a subset size to the channel indices to use
            (defaults to the lowest-index channels of that size).
    """
    _validate_kappa_mu(channels, kappa, mu)
    if subset_chooser is None:
        subset_chooser = lambda size: range(size)  # noqa: E731 - tiny default

    probs: Dict[Pair, float] = {}
    for (k, size), p in fractional_atoms(kappa, mu):
        members = frozenset(subset_chooser(size))
        if len(members) != size:
            raise ValueError(f"subset chooser returned {len(members)} channels, wanted {size}")
        key = (k, members)
        probs[key] = probs.get(key, 0.0) + p
    return ShareSchedule(channels, probs)
