"""The active adversary: attack plans, primitives and strategic attackers.

Where :mod:`repro.adversary.eavesdropper` only *reads* the channels, this
package *writes* to them: share corruption beyond random bit flips,
forged-share injection with valid wire framing, capture-and-replay of
previously observed packets, hold-based reorder/delay, jamming, and two
strategic attackers (the budget-bounded adaptive low-risk partitioner and
the targeted symbol corruptor).  Everything is declarative and
deterministic, on the timeline chassis (:mod:`repro.netsim.timeline`)
that :mod:`repro.netsim.faults` shares:

* :class:`AttackPlan` / :class:`AttackEvent` -- the timeline (pure data);
* :class:`AttackInjector` -- arms a plan against live links through the
  ``attack_tap``/``inject`` hooks on :class:`repro.netsim.link.Link`;
* :data:`CANONICAL_ATTACKS` / :func:`canonical_attack` -- the named
  scenario catalog shared by the property suite, the sweep grids,
  ``repro attack`` and ``bench_adversary.py``;
* :func:`run_under_attack` -- the seeded measurement harness whose rows
  carry the integrity/κ-floor/determinism evidence.

See docs/ADVERSARY.md for the threat model and the guarantees the
property suite locks down.
"""

from repro.adversary.active.engine import AttackInjector, AttackStats
from repro.adversary.active.harness import default_channels, run_under_attack
from repro.adversary.active.plan import (
    ACTIONS,
    AttackEvent,
    AttackPlan,
    CORRUPT_MODES,
    FORGE_MODES,
)
from repro.adversary.active.primitives import (
    corrupt_any_packet,
    corrupt_share_packet,
    forge_share_packet,
    is_share,
    share_body_offset,
)
from repro.adversary.active.scenarios import (
    CANONICAL_ATTACKS,
    canonical_attack,
    scenario_corruption_storm,
    scenario_forged_injection,
    scenario_replay_flood,
    scenario_targeted_corruption,
    scenario_targeted_partition,
)
from repro.adversary.active.strategies import AdaptiveAttacker, TargetedCorruptor

__all__ = [
    "ACTIONS",
    "AdaptiveAttacker",
    "AttackEvent",
    "AttackInjector",
    "AttackPlan",
    "AttackStats",
    "CANONICAL_ATTACKS",
    "CORRUPT_MODES",
    "FORGE_MODES",
    "TargetedCorruptor",
    "canonical_attack",
    "corrupt_any_packet",
    "corrupt_share_packet",
    "default_channels",
    "forge_share_packet",
    "is_share",
    "run_under_attack",
    "scenario_corruption_storm",
    "scenario_forged_injection",
    "scenario_replay_flood",
    "scenario_targeted_corruption",
    "scenario_targeted_partition",
    "share_body_offset",
]
