"""Canonical attack scenarios: the named adversaries every robustness
claim is measured against.

Mirrors :data:`repro.netsim.faults.CANONICAL_SCENARIOS`: each factory
takes ``(start, stop, **overrides)`` in simulator unit times and returns
an :class:`~repro.adversary.active.plan.AttackPlan`.  The property suite
(tests/test_attack_properties.py), the sweep grids
(:mod:`repro.experiments.attack`), ``repro attack`` and
``bench_adversary.py`` all draw from this one catalog, so "under every
canonical attack scenario" means the same thing everywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.adversary.active.plan import AttackPlan
from repro.netsim.timeline import build_scenario


def scenario_corruption_storm(
    start: float,
    stop: float,
    channel: Optional[int] = None,
    rate: float = 0.5,
    mode: str = "flip",
) -> AttackPlan:
    """Every share body on the attacked channel(s) is corrupted with
    probability ``rate`` -- framing intact, so only robust reconstruction
    can catch it."""
    return (
        AttackPlan()
        .corrupt(start, rate=rate, mode=mode, channel=channel)
        .end_corrupt(stop, channel=channel)
    )


def scenario_replay_flood(
    start: float,
    stop: float,
    channel: Optional[int] = None,
    rate: float = 4.0,
    tamper: bool = True,
) -> AttackPlan:
    """Captured packets are re-injected at ``rate`` per unit time; with
    ``tamper`` each copy is body-flipped so collisions with live slots
    carry mismatched payloads (the receiver's replay defense counts
    them)."""
    return (
        AttackPlan()
        .replay(start, rate=rate, tamper=tamper, channel=channel)
        .end_replay(stop, channel=channel)
    )


def scenario_forged_injection(
    start: float,
    stop: float,
    channel: Optional[int] = None,
    rate: float = 4.0,
    mode: str = "tracking",
) -> AttackPlan:
    """Well-framed forged shares are injected at ``rate`` per unit time,
    modelled on observed traffic (``tracking`` collides with live
    symbols; ``blind`` floods the reassembly table with phantoms)."""
    return (
        AttackPlan()
        .forge(start, rate=rate, mode=mode, channel=channel)
        .end_forge(stop, channel=channel)
    )


def scenario_targeted_partition(
    start: float,
    stop: float,
    budget: int = 8,
    period: float = 4.0,
    width: int = 2,
    jam_for: float = 2.0,
) -> AttackPlan:
    """The adaptive attacker spends ``budget`` jams on the lowest-risk
    channels, ``width`` at a time, forcing the planner toward riskier
    schedules."""
    return (
        AttackPlan()
        .adaptive(start, budget=budget, period=period, width=width, jam_for=jam_for)
        .end_adaptive(stop)
    )


def scenario_targeted_corruption(
    start: float,
    stop: float,
    period: int = 3,
    width: int = 2,
) -> AttackPlan:
    """The targeted corruptor rewrites every ``period``-th symbol's shares
    on ``width`` channels at once, concentrating damage past the
    correction radius of a single symbol."""
    return AttackPlan().target(start, period=period, width=width).end_target(stop)


#: Name -> factory for the canonical attack scenarios; each factory takes
#: ``(start, stop, **overrides)`` and returns an :class:`AttackPlan`.
CANONICAL_ATTACKS: Dict[str, Callable[..., AttackPlan]] = {
    "corruption_storm": scenario_corruption_storm,
    "replay_flood": scenario_replay_flood,
    "forged_injection": scenario_forged_injection,
    "targeted_partition": scenario_targeted_partition,
    "targeted_corruption": scenario_targeted_corruption,
}


def canonical_attack(name: str, start: float, stop: float, **overrides) -> AttackPlan:
    """Build one of the canonical attack scenarios by name."""
    return build_scenario(CANONICAL_ATTACKS, "attack scenario", name, start, stop, **overrides)
