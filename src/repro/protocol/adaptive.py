"""Closed-loop parameter adaptation.

The paper's model is deliberately *tunable*: "these parameters can be
chosen and adjusted accordingly" (Sec. III-A).  This module automates the
adjustment: an :class:`AdaptiveController` periodically

1. folds fresh monitoring evidence into per-channel risk estimates
   (the HMM filter of :mod:`repro.adversary.riskassess`);
2. re-estimates per-channel loss from transport feedback with an
   exponentially weighted moving average;
3. rebuilds the channel set and asks the planner
   (:mod:`repro.core.planner`) for the fastest schedule that still meets
   the deployment's requirements;
4. swaps the node's parameter sampler to the new LP-optimal schedule.

In the simulator the "transport feedback" is read from the link statistics
(a stand-in for the loss feedback a deployed protocol would obtain from
receiver reports); the alert feed is any callable returning the epoch's
alert bit per channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Callable, List, Optional, Sequence

from repro.adversary.riskassess import HmmRiskEstimator
from repro.core.channel import ChannelSet
from repro.core.planner import (
    NoFeasiblePlanError,
    Plan,
    Requirements,
    plan_max_rate,
)
from repro.netsim.engine import Engine
from repro.netsim.link import Link
from repro.protocol.remicss import RemicssNode
from repro.protocol.scheduler import ExplicitScheduler


@dataclass
class AdaptationRecord:
    """One controller review, kept for inspection and tests."""

    time: float
    risks: List[float]
    losses: List[float]
    plan: Optional[Plan]
    feasible: bool


class AdaptiveController:
    """Periodically retunes a ReMICSS node to meet stated requirements.

    Args:
        engine: the simulation engine (provides the review timer).
        node: the protocol node whose sampler is swapped on each review.
        base_channels: static channel properties (delay, rate); risk and
            loss are replaced by live estimates at each review.
        links: the node's outbound links, used as the loss-feedback source.
        alert_feed: callable ``(channel_index) -> bool`` returning the
            current epoch's IDS alert for a channel.
        risk_estimators: one HMM filter per channel.
        requirements: bounds the chosen plan must satisfy.
        period: time between reviews.
        loss_smoothing: EWMA weight on the newest loss observation.
        rng: randomness for the swapped-in explicit scheduler.
    """

    def __init__(
        self,
        engine: Engine,
        node: RemicssNode,
        base_channels: ChannelSet,
        links: Sequence[Link],
        alert_feed: Callable[[int], bool],
        risk_estimators: Sequence[HmmRiskEstimator],
        requirements: Requirements,
        period: float,
        loss_smoothing: float = 0.3,
        rng=None,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 < loss_smoothing <= 1.0:
            raise ValueError(f"loss_smoothing must be in (0, 1], got {loss_smoothing}")
        if not len(base_channels) == len(links) == len(risk_estimators):
            raise ValueError("need one link and one risk estimator per channel")
        self.engine = engine
        self.node = node
        self.base_channels = base_channels
        self.links = list(links)
        self.alert_feed = alert_feed
        self.risk_estimators = list(risk_estimators)
        self.requirements = requirements
        self.period = period
        self.loss_smoothing = loss_smoothing
        self.rng = rng if rng is not None else __import__("numpy").random.default_rng(0)
        self.history: List[AdaptationRecord] = []
        self._loss_estimate = [channel.loss for channel in base_channels]
        self._last_serialized = [0] * len(self.links)
        self._last_loss_drops = [0] * len(self.links)
        self._last_down_drops = [0] * len(self.links)
        self._timer = engine.schedule(period, self._review)

    def stop(self) -> None:
        """Cancel future reviews."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def current_plan(self) -> Optional[Plan]:
        """The most recent feasible plan, if any."""
        for record in reversed(self.history):
            if record.plan is not None:
                return record.plan
        return None

    # -- the review loop ---------------------------------------------------------

    def _observed_loss(self, index: int) -> Optional[float]:
        """Loss fraction on link ``index`` since the previous review.

        A downed link neither serializes nor loss-drops (sends fail
        *before* the wire, as ``down_drops``), so outages must be folded
        in explicitly or the estimator silently keeps its pre-outage
        estimates and plans over dead channels: send attempts refused by
        a downed link count as attempted-and-lost, and a link that is
        down with no attempts at all (e.g. the sender is stalled on
        readiness) is observed as total loss rather than "no evidence".
        """
        link = self.links[index]
        serialized = link.stats.serialized - self._last_serialized[index]
        drops = link.stats.loss_drops - self._last_loss_drops[index]
        down = link.stats.down_drops - self._last_down_drops[index]
        self._last_serialized[index] = link.stats.serialized
        self._last_loss_drops[index] = link.stats.loss_drops
        self._last_down_drops[index] = link.stats.down_drops
        attempts = serialized + down
        if attempts == 0:
            return 1.0 if not link.up else None
        return (drops + down) / attempts

    def _review(self) -> None:
        # 1. risk: fold in this epoch's alerts.
        risks = [
            estimator.update(self.alert_feed(i))
            for i, estimator in enumerate(self.risk_estimators)
        ]
        # 2. loss: EWMA over observed link loss (unused channels keep
        #    their previous estimate).
        for i in range(len(self.links)):
            observed = self._observed_loss(i)
            if observed is not None:
                self._loss_estimate[i] = (
                    (1.0 - self.loss_smoothing) * self._loss_estimate[i]
                    + self.loss_smoothing * observed
                )
        # Clamp: the model requires loss strictly below 1.
        losses = [min(loss, 0.999) for loss in self._loss_estimate]
        channels = ChannelSet.from_vectors(
            risks=risks,
            losses=losses,
            delays=self.base_channels.delays,
            rates=self.base_channels.rates,
            names=[channel.name for channel in self.base_channels],
        )
        # 3/4. plan and swap the sampler.
        try:
            plan = plan_max_rate(channels, self.requirements)
        except NoFeasiblePlanError:
            self.history.append(
                AdaptationRecord(
                    time=self.engine.now, risks=risks, losses=losses,
                    plan=None, feasible=False,
                )
            )
        else:
            self.node.sender.sampler = ExplicitScheduler(plan.schedule, self.rng)
            self.history.append(
                AdaptationRecord(
                    time=self.engine.now, risks=risks, losses=losses,
                    plan=plan, feasible=True,
                )
            )
        self._timer = self.engine.schedule(self.period, self._review)
