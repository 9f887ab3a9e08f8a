"""Network risk assessment: estimating the risk vector z.

The model consumes a per-channel risk vector "estimated using network risk
assessment techniques" (Sec. III-A, citing Arnes et al.'s HMM-based method
[28]).  This module implements that substrate so the pipeline from raw
monitoring data to protocol parameters is complete:

* each channel is modelled as a two-state hidden Markov model -- the
  channel is either SAFE or COMPROMISED (eavesdropped) -- with known
  transition dynamics;
* a monitoring system (IDS, integrity probes) emits one binary alert
  observation per epoch, with known true/false-positive rates;
* the forward algorithm filters the alert stream into
  ``P(compromised | observations)``, and the filtered probability is the
  channel's risk metric ``z_i``.

A ground-truth simulator is included so the estimator can be validated
end-to-end: generate a compromise trajectory, emit alerts, estimate, and
compare against the trajectory the estimates were derived from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.channel import ChannelSet

#: Hidden state indices.
SAFE, COMPROMISED = 0, 1


@dataclass(frozen=True)
class HmmRiskModel:
    """Parameters of the per-channel compromise HMM.

    Attributes:
        p_compromise: per-epoch probability a safe channel becomes
            compromised (SAFE -> COMPROMISED transition).
        p_recover: per-epoch probability a compromise is remediated
            (COMPROMISED -> SAFE transition).
        p_false_alert: probability of an alert in a SAFE epoch.
        p_true_alert: probability of an alert in a COMPROMISED epoch.
        initial_risk: prior probability of starting compromised.
    """

    p_compromise: float = 0.01
    p_recover: float = 0.05
    p_false_alert: float = 0.05
    p_true_alert: float = 0.7
    initial_risk: float = 0.05

    def __post_init__(self) -> None:
        for name in ("p_compromise", "p_recover", "p_false_alert", "p_true_alert", "initial_risk"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.p_true_alert <= self.p_false_alert:
            raise ValueError(
                "alerts must be more likely under compromise "
                f"(p_true_alert={self.p_true_alert} <= p_false_alert={self.p_false_alert})"
            )

    @property
    def transition(self) -> np.ndarray:
        """Row-stochastic transition matrix, indexed [from, to]."""
        return np.array(
            [
                [1.0 - self.p_compromise, self.p_compromise],
                [self.p_recover, 1.0 - self.p_recover],
            ]
        )

    @property
    def emission(self) -> np.ndarray:
        """Emission matrix, indexed [state, alert]."""
        return np.array(
            [
                [1.0 - self.p_false_alert, self.p_false_alert],
                [1.0 - self.p_true_alert, self.p_true_alert],
            ]
        )


class HmmRiskEstimator:
    """Filters alert streams into per-channel risk estimates.

    One estimator instance tracks one channel; its :meth:`update` consumes
    one epoch's alert bit and returns the posterior compromise probability
    (the channel's current ``z_i``).
    """

    def __init__(self, model: HmmRiskModel):
        self.model = model
        self._belief = np.array([1.0 - model.initial_risk, model.initial_risk])

    @property
    def risk(self) -> float:
        """Current ``P(compromised | all alerts so far)``."""
        return float(self._belief[COMPROMISED])

    def update(self, alert: bool) -> float:
        """Fold in one epoch's alert observation (forward-algorithm step)."""
        predicted = self._belief @ self.model.transition
        likelihood = self.model.emission[:, int(bool(alert))]
        unnormalised = predicted * likelihood
        total = unnormalised.sum()
        # Exact-zero sentinel: total is exactly 0.0 only when every state's
        # likelihood product underflows to zero, the one case where the
        # normalising division is undefined.
        if total == 0.0:  # pragma: no cover - both likelihoods zero  # lint: disable=float-eq
            self._belief = predicted
        else:
            self._belief = unnormalised / total
        return self.risk

    def update_many(self, alerts: Sequence[bool]) -> float:
        """Fold in a whole alert history; returns the final risk."""
        for alert in alerts:
            self.update(alert)
        return self.risk


def forward_posterior(model: HmmRiskModel, alerts: Sequence[bool]) -> float:
    """One-shot forward filtering (reference implementation for tests)."""
    estimator = HmmRiskEstimator(model)
    return estimator.update_many(alerts)


def simulate_channel_history(
    model: HmmRiskModel,
    epochs: int,
    rng: np.random.Generator,
) -> Tuple[List[int], List[bool]]:
    """Generate a ground-truth compromise trajectory and its alert stream.

    Returns:
        ``(states, alerts)``: per-epoch hidden states and emitted alerts.
    """
    if epochs < 1:
        raise ValueError("epochs must be positive")
    transition = model.transition
    emission = model.emission
    states: List[int] = []
    alerts: List[bool] = []
    state = COMPROMISED if rng.random() < model.initial_risk else SAFE
    for _ in range(epochs):
        state = COMPROMISED if rng.random() < transition[state, COMPROMISED] else SAFE
        states.append(state)
        alerts.append(bool(rng.random() < emission[state, 1]))
    return states, alerts


def assess_channel_set(
    base: ChannelSet,
    models: Sequence[HmmRiskModel],
    alert_streams: Sequence[Sequence[bool]],
) -> ChannelSet:
    """Rebuild a channel set with risks estimated from monitoring data.

    Args:
        base: channel set whose loss/delay/rate are kept as-is.
        models: one HMM per channel.
        alert_streams: one alert history per channel.

    Returns:
        A new :class:`ChannelSet` whose risk vector is the filtered
        posterior compromise probability of each channel.
    """
    if not len(base) == len(models) == len(alert_streams):
        raise ValueError("need one model and one alert stream per channel")
    risks = [
        forward_posterior(model, alerts)
        for model, alerts in zip(models, alert_streams)
    ]
    return ChannelSet.from_vectors(
        risks=risks,
        losses=base.losses,
        delays=base.delays,
        rates=base.rates,
        names=[channel.name for channel in base],
    )
