"""The per-channel quarantine state machine.

::

                 bad review                escalating review
    HEALTHY ----------------> SUSPECT ----------------------> QUARANTINED
       ^                         |                                 |
       |   RECOVER_REVIEWS clean |                probe scheduled  |
       +-------------------------+                                 v
       ^                                                        PROBING
       |                        probe ack                          |
       +-----------------------------------------------------------+

A channel is *suspected* on the first bad review (elevated EWMA loss,
liveness suspicion, or a stuck port) and *quarantined* when the evidence
escalates (loss or suspicion past the quarantine thresholds, or
``STUCK_REVIEWS`` consecutive stuck reviews).  Quarantined channels are
probed with exponential backoff; one probe ack reinstates the channel.
Every transition is appended to an in-order log with its reason, which
the manager exports through ``repro.obs``.

The machine is pure state + arithmetic: the manager owns all timers and
I/O, so this module needs no engine and stays trivially deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.protocol.resilience.config import (
    PROBE_BACKOFF,
    PROBE_INTERVAL,
    PROBE_MAX_INTERVAL,
    QUARANTINE_LOSS,
    QUARANTINE_SUSPICION,
    RECOVER_REVIEWS,
    STUCK_REVIEWS,
    SUSPECT_LOSS,
    SUSPECT_SUSPICION,
)
from repro.protocol.resilience.health import HealthSample


class ChannelState(enum.Enum):
    """Quarantine states, ordered by escalation."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    PROBING = "probing"

    @property
    def excluded(self) -> bool:
        """Whether the share schedule must avoid this channel."""
        return self in (ChannelState.QUARANTINED, ChannelState.PROBING)


@dataclass(frozen=True)
class Transition:
    """One state change, kept for inspection, tests, and metrics."""

    time: float
    channel: int
    source: ChannelState
    target: ChannelState
    reason: str


class ChannelGuard:
    """The quarantine state machine for one channel.

    Args:
        channel: channel index (carried into transitions).
    """

    def __init__(self, channel: int):
        self.channel = channel
        self.state = ChannelState.HEALTHY
        self.transitions: List[Transition] = []
        self.probes_sent = 0
        self.next_probe_at: Optional[float] = None
        self._probe_interval = PROBE_INTERVAL
        self._clean_reviews = 0

    # -- review-driven transitions ------------------------------------------------

    def review(self, now: float, sample: HealthSample) -> Optional[Transition]:
        """Fold one health sample; returns the transition taken, if any."""
        if self.state is ChannelState.HEALTHY:
            reason = self._suspect_reason(sample)
            if reason is not None:
                return self._move(now, ChannelState.SUSPECT, reason)
            return None
        if self.state is ChannelState.SUSPECT:
            reason = self._quarantine_reason(sample)
            if reason is not None:
                self._enter_quarantine(now)
                return self._move(now, ChannelState.QUARANTINED, reason)
            if self._suspect_reason(sample) is None:
                self._clean_reviews += 1
                if self._clean_reviews >= RECOVER_REVIEWS:
                    return self._move(now, ChannelState.HEALTHY, "clean_reviews")
            else:
                self._clean_reviews = 0
            return None
        # QUARANTINED / PROBING recover via probe acks, not reviews.
        return None

    def _suspect_reason(self, sample: HealthSample) -> Optional[str]:
        if sample.stuck_reviews >= 1:
            return "stuck"
        if sample.loss >= SUSPECT_LOSS:
            return "loss"
        if sample.suspicion >= SUSPECT_SUSPICION:
            return "suspicion"
        return None

    def _quarantine_reason(self, sample: HealthSample) -> Optional[str]:
        if sample.stuck_reviews >= STUCK_REVIEWS:
            return "stuck"
        if sample.loss >= QUARANTINE_LOSS:
            return "loss"
        if sample.suspicion >= QUARANTINE_SUSPICION:
            return "suspicion"
        return None

    # -- probe-driven transitions -------------------------------------------------

    def on_probe_sent(self, now: float) -> Optional[Transition]:
        """Record a probe send; backs off the next probe exponentially."""
        self.probes_sent += 1
        self.next_probe_at = now + self._probe_interval
        self._probe_interval = min(
            self._probe_interval * PROBE_BACKOFF, PROBE_MAX_INTERVAL
        )
        if self.state is ChannelState.QUARANTINED:
            return self._move(now, ChannelState.PROBING, "probe_sent")
        return None

    def on_probe_ack(self, now: float) -> Optional[Transition]:
        """Record a probe ack: it reinstates an excluded channel."""
        if not self.state.excluded:
            return None
        transition = self._move(now, ChannelState.HEALTHY, "probe_ack")
        self.next_probe_at = None
        self._probe_interval = PROBE_INTERVAL
        self.probes_sent = 0
        return transition

    # -- internals ----------------------------------------------------------------

    def _enter_quarantine(self, now: float) -> None:
        self._probe_interval = PROBE_INTERVAL
        self.next_probe_at = now + self._probe_interval
        self.probes_sent = 0

    def _move(self, now: float, target: ChannelState, reason: str) -> Transition:
        transition = Transition(
            time=now, channel=self.channel, source=self.state,
            target=target, reason=reason,
        )
        self.state = target
        self._clean_reviews = 0
        self.transitions.append(transition)
        return transition
