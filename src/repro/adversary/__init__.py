"""Adversaries and empirical validation of the privacy model.

The paper's threat model (Sec. III-A) is an eavesdropper who observes each
share sent on channel i independently with probability ``z_i``.  This
package provides:

* :class:`~repro.adversary.eavesdropper.Eavesdropper` -- a wire-tapping
  adversary attached to the simulated links; it records observed shares
  and *actually reconstructs* every symbol for which it captured at least
  k shares, giving a ground-truth compromise count;
* :mod:`~repro.adversary.montecarlo` -- fast vectorised Monte-Carlo
  estimators of Z(p), L(p) and D(p) that sample the model directly
  (without the protocol machinery), used to validate the closed-form
  subset/schedule formulas independently;
* :mod:`~repro.adversary.riskassess` -- the HMM-based network risk
  assessment the paper cites as the source of the z vector: IDS alert
  streams filtered into per-channel compromise probabilities;
* :mod:`~repro.adversary.active` -- the *active* adversary: declarative
  :class:`~repro.adversary.active.plan.AttackPlan` timelines of
  corruption/forgery/replay/hold/jam primitives plus strategic attackers
  (adaptive low-risk partitioner, targeted symbol corruptor), armed
  against live links by an
  :class:`~repro.adversary.active.engine.AttackInjector` (see
  docs/ADVERSARY.md).
"""

from repro.adversary.active import (
    AttackEvent,
    AttackInjector,
    AttackPlan,
    CANONICAL_ATTACKS,
    canonical_attack,
    run_under_attack,
)

from repro.adversary.eavesdropper import Eavesdropper
from repro.adversary.montecarlo import (
    estimate_schedule_properties,
    estimate_subset_properties,
)
from repro.adversary.riskassess import (
    HmmRiskEstimator,
    HmmRiskModel,
    assess_channel_set,
    simulate_channel_history,
)

__all__ = [
    "AttackEvent",
    "AttackInjector",
    "AttackPlan",
    "CANONICAL_ATTACKS",
    "canonical_attack",
    "run_under_attack",
    "Eavesdropper",
    "estimate_schedule_properties",
    "estimate_subset_properties",
    "HmmRiskModel",
    "HmmRiskEstimator",
    "assess_channel_set",
    "simulate_channel_history",
]
