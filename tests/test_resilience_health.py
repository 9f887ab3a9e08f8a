"""The per-channel failure detector: EWMA loss, suspicion, stuck reviews."""

import pytest

from repro.protocol.resilience import HealthMonitor


def observe_clean(monitor, now, channel=0, sent=10):
    return monitor.observe(
        now, channel, serialized_delta=sent, loss_delta=0,
        delivered_delta=sent, blocked=False,
    )


class TestValidation:
    def test_needs_a_channel(self):
        with pytest.raises(ValueError):
            HealthMonitor(0)


class TestLossEwma:
    def test_clean_traffic_keeps_loss_zero(self):
        monitor = HealthMonitor(1)
        for t in range(1, 6):
            sample = observe_clean(monitor, float(t))
        assert sample.loss == 0.0

    def test_total_loss_converges_up(self):
        monitor = HealthMonitor(1)
        losses = []
        for t in range(1, 5):
            sample = monitor.observe(
                float(t), 0, serialized_delta=10, loss_delta=10,
                delivered_delta=0, blocked=False,
            )
            losses.append(sample.loss)
        # LOSS_ALPHA = 0.3: 0.3, 0.51, 0.657, 0.7599 -- strictly climbing to 1.
        assert losses == pytest.approx([0.3, 0.51, 0.657, 0.7599])

    def test_no_traffic_keeps_previous_estimate(self):
        monitor = HealthMonitor(1)
        first = monitor.observe(1.0, 0, 10, 5, 5, blocked=False)
        second = monitor.observe(2.0, 0, 0, 0, 0, blocked=False)
        assert second.loss == first.loss


class TestSuspicion:
    def test_idle_channel_is_never_suspected(self):
        monitor = HealthMonitor(1)
        for t in range(1, 20):
            sample = monitor.observe(float(t), 0, 0, 0, 0, blocked=False)
        assert sample.suspicion == 0.0

    def test_silence_under_demand_grows_linearly(self):
        monitor = HealthMonitor(1)
        observe_clean(monitor, 1.0)  # evidence at t=1, gap_ewma = 1
        scores = []
        for t in range(2, 6):
            # Packets keep going out, nothing comes back.
            sample = monitor.observe(float(t), 0, 10, 0, 0, blocked=False)
            scores.append(sample.suspicion)
        assert scores == [pytest.approx(t - 1.0) for t in range(2, 6)]

    def test_delivery_evidence_resets_the_score(self):
        monitor = HealthMonitor(1)
        observe_clean(monitor, 1.0)
        monitor.observe(2.0, 0, 10, 0, 0, blocked=False)
        sample = observe_clean(monitor, 3.0)
        assert sample.suspicion == 0.0

    def test_reset_forgets_history(self):
        monitor = HealthMonitor(2)
        for t in range(1, 5):
            monitor.observe(float(t), 0, 10, 10, 0, blocked=False)
        monitor.reset(0, now=5.0)
        assert monitor.channel(0).loss_ewma == 0.0
        sample = monitor.observe(6.0, 0, 0, 0, 0, blocked=False)
        assert sample.suspicion == 0.0


class TestStuckReviews:
    def test_blocked_and_silent_accumulates(self):
        monitor = HealthMonitor(1)
        counts = [
            monitor.observe(float(t), 0, 0, 0, 0, blocked=True).stuck_reviews
            for t in range(1, 4)
        ]
        assert counts == [1, 2, 3]

    def test_any_serialization_clears_stuck(self):
        monitor = HealthMonitor(1)
        monitor.observe(1.0, 0, 0, 0, 0, blocked=True)
        # Still blocked, but packets moved: backpressure, not an outage.
        sample = monitor.observe(2.0, 0, 5, 0, 5, blocked=True)
        assert sample.stuck_reviews == 0

    def test_unblocked_idle_is_not_stuck(self):
        monitor = HealthMonitor(1)
        sample = monitor.observe(1.0, 0, 0, 0, 0, blocked=False)
        assert sample.stuck_reviews == 0

    def test_channels_are_independent(self):
        monitor = HealthMonitor(2)
        monitor.observe(1.0, 0, 0, 0, 0, blocked=True)
        sample = observe_clean(monitor, 1.0, channel=1)
        assert sample.stuck_reviews == 0
        assert monitor.channel(0).stuck_reviews == 1
