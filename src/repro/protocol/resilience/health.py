"""Per-channel failure detection from sim-time send outcomes.

The monitor folds three deterministic signals, all observable at the
sender (link counters stand in for the loss/delivery feedback a deployed
protocol would obtain from receiver reports):

* **EWMA loss** -- loss drops over serialized packets since the previous
  review, smoothed with weight ``LOSS_ALPHA``.
* **Liveness suspicion** -- a phi-accrual-style score: time since the
  last delivery evidence divided by the EWMA of past evidence gaps.  A
  healthy channel keeps the score near 1; a dead channel's score grows
  linearly with silence.  The score only accrues while the channel has
  unacknowledged demand (packets serialized since the last evidence), so
  an idle channel is never suspected.
* **Stuck reviews** -- consecutive reviews in which the port was blocked
  (not writable) yet serialized nothing.  This catches hard outages even
  when an explicit schedule head-of-line-stalls the sender so completely
  that no loss evidence is generated.

With authenticated shares armed (docs/AUTH.md) the review also feeds
verified-failure evidence: shares whose keyed MAC failed at the receiver
(``tainted_delta``) count against the channel exactly like loss, so a
forgery-heavy channel accrues suspicion and gets quarantined like a
lossy one -- an attacker cannot keep a channel "healthy" by delivering
garbage on time.

Everything is pure arithmetic on review-time deltas: no wall clock, no
randomness, no unordered iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.protocol.resilience.config import LOSS_ALPHA, REVIEW_PERIOD


@dataclass(frozen=True)
class HealthSample:
    """One channel's detector outputs at a review."""

    channel: int
    loss: float
    suspicion: float
    stuck_reviews: int


class ChannelHealth:
    """Mutable detector state for one channel."""

    __slots__ = (
        "loss_ewma", "gap_ewma", "last_evidence_at", "sent_since_evidence",
        "stuck_reviews",
    )

    def __init__(self, now: float, gap: float):
        self.loss_ewma = 0.0
        self.gap_ewma = gap
        self.last_evidence_at = now
        self.sent_since_evidence = 0
        self.stuck_reviews = 0

    def suspicion(self, now: float) -> float:
        """The liveness suspicion score at time ``now``."""
        if self.sent_since_evidence == 0:
            return 0.0
        return (now - self.last_evidence_at) / self.gap_ewma


class HealthMonitor:
    """Failure detector over ``n`` channels.

    Args:
        n: number of channels.
        now: current sim time (initial evidence timestamp).
    """

    def __init__(self, n: int, now: float = 0.0):
        if n < 1:
            raise ValueError(f"need at least one channel, got {n}")
        self._channels: List[ChannelHealth] = [
            ChannelHealth(now, REVIEW_PERIOD) for _ in range(n)
        ]

    def __len__(self) -> int:
        return len(self._channels)

    def channel(self, index: int) -> ChannelHealth:
        """The detector state for one channel (read-mostly; for tests)."""
        return self._channels[index]

    def observe(
        self,
        now: float,
        channel: int,
        serialized_delta: int,
        loss_delta: int,
        delivered_delta: int,
        blocked: bool,
        tainted_delta: int = 0,
    ) -> HealthSample:
        """Fold one review interval's counters into the detector.

        Args:
            now: current sim time.
            channel: channel index.
            serialized_delta: packets put on the wire since last review.
            loss_delta: packets lost in transit since last review.
            delivered_delta: packets delivered since last review (the
                receiver-feedback stand-in; evidence of liveness).
            blocked: whether the port currently refuses writes.
            tainted_delta: shares delivered on this channel whose keyed
                MAC failed verification since last review (auth armed).
                A verified-bad delivery is as useless as a loss, so it
                folds into the loss EWMA -- clamped so loss + taint never
                exceeds what was actually serialized.
        """
        state = self._channels[channel]
        if serialized_delta > 0:
            useless = min(loss_delta + max(tainted_delta, 0), serialized_delta)
            observed = useless / serialized_delta
            state.loss_ewma = (1.0 - LOSS_ALPHA) * state.loss_ewma + LOSS_ALPHA * observed
        state.sent_since_evidence += serialized_delta
        if delivered_delta > 0:
            gap = max(now - state.last_evidence_at, REVIEW_PERIOD)
            state.gap_ewma = (1.0 - LOSS_ALPHA) * state.gap_ewma + LOSS_ALPHA * gap
            state.last_evidence_at = now
            state.sent_since_evidence = 0
        if blocked and serialized_delta == 0:
            state.stuck_reviews += 1
        else:
            state.stuck_reviews = 0
        return HealthSample(
            channel=channel,
            loss=state.loss_ewma,
            suspicion=state.suspicion(now),
            stuck_reviews=state.stuck_reviews,
        )

    def reset(self, channel: int, now: float) -> None:
        """Forget a channel's history (called on reinstatement, so a
        repaired channel starts from a clean slate instead of its
        pre-outage estimates)."""
        self._channels[channel] = ChannelHealth(now, REVIEW_PERIOD)
