"""Vectorised Monte-Carlo estimators for the model's closed forms.

These estimators sample the protocol *model* directly -- draw (k, M) from
the schedule, draw per-channel observation/loss events, compute arrival
order statistics -- without any of the protocol or simulator machinery.
They serve as an independent check that the subset and schedule formulas
of Sec. IV-A are correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.channel import ChannelSet
from repro.core.schedule import ShareSchedule


@dataclass(frozen=True)
class PropertyEstimates:
    """Monte-Carlo estimates of the three per-symbol properties.

    ``delay`` is conditioned on the symbol being delivered (as in the
    model); it is NaN when every sampled symbol was lost.
    """

    risk: float
    loss: float
    delay: float
    samples: int


def estimate_subset_properties(
    channels: ChannelSet,
    k: int,
    subset: Iterable[int],
    rng: np.random.Generator,
    samples: int = 100_000,
) -> PropertyEstimates:
    """Estimate z(k, M), l(k, M) and d(k, M) by direct simulation.

    For each trial: every channel of M independently observes its share
    with probability z_i and loses it with probability l_i; the symbol is
    compromised when >= k observations occur, lost when < k shares
    survive, and otherwise delivered at the k-th smallest surviving delay.
    """
    members = sorted(channels.validate_subset(subset))
    if not 1 <= k <= len(members):
        raise ValueError(f"threshold k={k} invalid for |M|={len(members)}")
    risks = np.array([channels[i].risk for i in members])
    losses = np.array([channels[i].loss for i in members])
    delays = np.array([channels[i].delay for i in members])

    observed = rng.random((samples, len(members))) < risks
    compromised = observed.sum(axis=1) >= k

    survived = rng.random((samples, len(members))) >= losses
    arrived = survived.sum(axis=1)
    lost = arrived < k

    # Delay: k-th smallest delay among surviving shares, delivered rows only.
    delay_matrix = np.where(survived, delays, np.inf)
    kth = np.sort(delay_matrix, axis=1)[:, k - 1]
    delivered = ~lost
    mean_delay = float(kth[delivered].mean()) if delivered.any() else float("nan")

    return PropertyEstimates(
        risk=float(compromised.mean()),
        loss=float(lost.mean()),
        delay=mean_delay,
        samples=samples,
    )


def estimate_schedule_properties(
    schedule: ShareSchedule,
    rng: np.random.Generator,
    samples: int = 100_000,
) -> PropertyEstimates:
    """Estimate Z(p), L(p) and D(p) by sampling pairs from the schedule.

    Stratified by schedule atom: each (k, M) pair receives a share of the
    sample budget proportional to its probability, and the per-atom
    estimates are combined with the exact weights.  This removes the
    sampling noise of the categorical draw itself.
    """
    total_risk = 0.0
    total_loss = 0.0
    total_delay = 0.0
    delay_valid = True
    used = 0
    for (k, members), probability in schedule.support():
        atom_samples = max(1000, int(round(samples * probability)))
        estimate = estimate_subset_properties(
            schedule.channels, k, members, rng, samples=atom_samples
        )
        used += estimate.samples
        total_risk += probability * estimate.risk
        total_loss += probability * estimate.loss
        # The paper's D(p) weights each atom's (delivery-conditioned)
        # d(k, M) by plain p(k, M).
        if np.isnan(estimate.delay):
            delay_valid = False
        else:
            total_delay += probability * estimate.delay
    return PropertyEstimates(
        risk=total_risk,
        loss=total_loss,
        delay=total_delay if delay_valid else float("nan"),
        samples=used,
    )

