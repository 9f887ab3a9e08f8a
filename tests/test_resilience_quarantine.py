"""The quarantine state machine: suspect, quarantine, probe, reinstate."""

import pytest

from repro.protocol.resilience import ChannelGuard, ChannelState
from repro.protocol.resilience.health import HealthSample


def sample(loss=0.0, suspicion=0.0, stuck=0, channel=0):
    return HealthSample(
        channel=channel, loss=loss, suspicion=suspicion, stuck_reviews=stuck
    )


def quarantine(guard, now=1.0):
    """Drive a guard HEALTHY -> QUARANTINED via two stuck reviews."""
    guard.review(now, sample(stuck=1))
    transition = guard.review(now + 1.0, sample(stuck=2))
    assert guard.state is ChannelState.QUARANTINED
    return transition


class TestSuspicionPath:
    @pytest.mark.parametrize(
        "bad,reason",
        [
            (sample(loss=0.6), "loss"),
            (sample(suspicion=5.0), "suspicion"),
            (sample(stuck=1), "stuck"),
        ],
    )
    def test_one_bad_review_suspects(self, bad, reason):
        guard = ChannelGuard(0)
        transition = guard.review(1.0, bad)
        assert guard.state is ChannelState.SUSPECT
        assert transition.reason == reason

    def test_healthy_review_does_nothing(self):
        guard = ChannelGuard(0)
        assert guard.review(1.0, sample()) is None
        assert guard.state is ChannelState.HEALTHY

    def test_suspect_recovers_after_clean_reviews(self):
        guard = ChannelGuard(0)
        guard.review(1.0, sample(loss=0.6))
        assert guard.review(2.0, sample(loss=0.1)) is None  # 1 clean
        transition = guard.review(3.0, sample(loss=0.1))  # 2 clean
        assert guard.state is ChannelState.HEALTHY
        assert transition.reason == "clean_reviews"

    def test_bad_review_resets_the_clean_count(self):
        guard = ChannelGuard(0)
        guard.review(1.0, sample(loss=0.6))
        guard.review(2.0, sample(loss=0.1))
        guard.review(3.0, sample(loss=0.6))  # still suspect-worthy
        guard.review(4.0, sample(loss=0.1))
        assert guard.state is ChannelState.SUSPECT  # count restarted


class TestQuarantinePath:
    def test_escalating_loss_quarantines(self):
        guard = ChannelGuard(0)
        guard.review(1.0, sample(loss=0.6))
        transition = guard.review(2.0, sample(loss=0.8))
        assert guard.state is ChannelState.QUARANTINED
        assert transition.reason == "loss"

    def test_stuck_needs_consecutive_reviews(self):
        guard = ChannelGuard(0)
        guard.review(1.0, sample(stuck=1))
        assert guard.state is ChannelState.SUSPECT
        guard.review(2.0, sample(stuck=2))
        assert guard.state is ChannelState.QUARANTINED

    def test_quarantine_schedules_the_first_probe(self):
        guard = ChannelGuard(0)
        quarantine(guard)
        assert guard.next_probe_at == pytest.approx(3.0)  # quarantined at 2

    def test_reviews_do_not_touch_quarantined_channels(self):
        guard = ChannelGuard(0)
        quarantine(guard)
        assert guard.review(5.0, sample()) is None
        assert guard.state is ChannelState.QUARANTINED


class TestProbing:
    def test_probe_backoff_is_exponential_and_capped(self):
        guard = ChannelGuard(0)
        quarantine(guard)  # quarantined at t=2, first probe due at 3
        times = []
        now = guard.next_probe_at
        for _ in range(6):
            times.append(now)
            guard.on_probe_sent(now)
            now = guard.next_probe_at
        # Intervals 1, 2, 4, 8, 8 (capped at PROBE_MAX_INTERVAL).
        assert times == [pytest.approx(t) for t in (3.0, 4.0, 6.0, 10.0, 18.0, 26.0)]
        assert guard.state is ChannelState.PROBING

    def test_ack_reinstates_and_resets(self):
        guard = ChannelGuard(0)
        quarantine(guard)
        guard.on_probe_sent(3.0)
        transition = guard.on_probe_ack(3.5)
        assert transition is not None
        assert transition.reason == "probe_ack"
        assert guard.state is ChannelState.HEALTHY
        assert guard.next_probe_at is None
        assert guard.probes_sent == 0

    def test_stray_ack_on_healthy_channel_ignored(self):
        guard = ChannelGuard(0)
        assert guard.on_probe_ack(1.0) is None
        assert guard.state is ChannelState.HEALTHY

    def test_requarantine_restarts_the_backoff(self):
        guard = ChannelGuard(0)
        quarantine(guard)
        for now in (3.0, 4.0, 6.0):
            guard.on_probe_sent(now)
        guard.on_probe_ack(6.5)
        quarantine(guard, now=10.0)
        assert guard.next_probe_at == pytest.approx(12.0)


class TestTransitionLog:
    def test_full_cycle_is_logged_in_order(self):
        guard = ChannelGuard(3)
        quarantine(guard)
        guard.on_probe_sent(3.0)
        guard.on_probe_ack(3.5)
        states = [(t.source, t.target) for t in guard.transitions]
        assert states == [
            (ChannelState.HEALTHY, ChannelState.SUSPECT),
            (ChannelState.SUSPECT, ChannelState.QUARANTINED),
            (ChannelState.QUARANTINED, ChannelState.PROBING),
            (ChannelState.PROBING, ChannelState.HEALTHY),
        ]
        assert all(t.channel == 3 for t in guard.transitions)
        times = [t.time for t in guard.transitions]
        assert times == sorted(times)

    def test_excluded_property(self):
        assert not ChannelState.HEALTHY.excluded
        assert not ChannelState.SUSPECT.excluded
        assert ChannelState.QUARANTINED.excluded
        assert ChannelState.PROBING.excluded
