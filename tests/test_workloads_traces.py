"""Synthetic application traces tunnelled through the protocol."""

import numpy as np
import pytest

from repro.core.channel import Channel, ChannelSet
from repro.protocol.config import ProtocolConfig
from repro.workloads.traces import (
    TRACE_GENERATORS,
    messaging_trace,
    run_trace,
    streaming_trace,
    web_trace,
)


@pytest.fixture
def clean_channels():
    return ChannelSet.from_vectors(
        risks=[0.0] * 3,
        losses=[0.0] * 3,
        delays=[0.01] * 3,
        rates=[200.0] * 3,
    )


class TestGenerators:
    def test_web_trace_heavy_tail(self, rng):
        events = list(web_trace(200.0, rng))
        sizes = np.array([len(payload) for _, payload in events])
        assert len(events) > 100
        # Responses reach well beyond the typical request size.
        assert sizes.max() > 5000
        assert np.median(sizes) < sizes.mean()  # right-skewed

    def test_web_trace_times_in_range(self, rng):
        events = list(web_trace(50.0, rng))
        assert all(0.0 <= when for when, _ in events)
        # Requests are emitted before the duration; responses may lag a
        # few hundredths past it.
        assert max(when for when, _ in events) < 50.1

    def test_streaming_trace_cbr(self, rng):
        events = list(streaming_trace(10.0, rng, datagram_size=500,
                                      datagrams_per_unit=8.0))
        assert len(events) == 80
        assert all(len(p) == 500 for _, p in events)
        times = [when for when, _ in events]
        assert times == sorted(times)

    def test_messaging_trace_sizes(self, rng):
        events = list(messaging_trace(500.0, rng, min_size=20, max_size=50))
        assert events
        assert all(20 <= len(p) <= 50 for _, p in events)

    def test_generators_deterministic(self):
        a = list(web_trace(20.0, np.random.default_rng(5)))
        b = list(web_trace(20.0, np.random.default_rng(5)))
        assert a == b


class TestRunTrace:
    @pytest.mark.parametrize("kind", ["web", "streaming", "messaging"])
    def test_lossless_traces_arrive_intact(self, clean_channels, kind):
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=256)
        result = run_trace(clean_channels, config, kind=kind, duration=15.0)
        assert result.sent > 0
        assert result.delivered == result.sent
        assert result.intact == result.sent

    def test_web_trace_survives_light_loss(self):
        channels = ChannelSet.from_vectors(
            risks=[0.0] * 3,
            losses=[0.02, 0.02, 0.02],
            delays=[0.01] * 3,
            rates=[200.0] * 3,
        )
        # kappa=1, mu=3: triple redundancy shrugs the loss off.
        config = ProtocolConfig(kappa=1.0, mu=3.0, symbol_size=256,
                                reassembly_timeout=10.0)
        result = run_trace(channels, config, kind="web", duration=20.0)
        assert result.delivery_ratio > 0.95

    def test_rejects_synthetic_mode(self, clean_channels):
        config = ProtocolConfig(share_synthetic=True)
        with pytest.raises(ValueError):
            run_trace(clean_channels, config)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan"), 0.0, -1.0])
    def test_rejects_a_duration_no_trace_ends_in(self, clean_channels, monkeypatch, duration):
        # With an infinite or NaN duration the web and messaging
        # generators never stop, so the check must come before they run.
        def generator(*args):
            raise AssertionError("the trace generator ran")

        monkeypatch.setitem(TRACE_GENERATORS, "web", generator)
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            run_trace(clean_channels, ProtocolConfig(symbol_size=256), duration=duration)

    def test_unknown_kind(self, clean_channels):
        config = ProtocolConfig(symbol_size=256)
        with pytest.raises(ValueError):
            run_trace(clean_channels, config, kind="voip")

    @pytest.mark.parametrize("seed,sent", [(20, 124), (31, 92), (36, 106)])
    def test_response_after_the_window_is_flushed(self, seed, sent):
        # Each seed times one web response after the 30-unit window ends;
        # the tunnel's final flush must still send its last symbol.
        channels = ChannelSet(
            [Channel(0.1, 0.0, 0.01, 40.0)] * 2 + [Channel(0.1, 0.0, 0.02, 40.0)]
        )
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=256, reassembly_timeout=20.0)
        result = run_trace(channels, config, "web", 30.0, seed=seed)
        assert (result.sent, result.delivered, result.intact) == (sent, sent, sent)

    def test_deterministic(self, clean_channels):
        config = ProtocolConfig(kappa=2.0, mu=2.0, symbol_size=256)
        a = run_trace(clean_channels, config, kind="messaging", duration=10.0, seed=3)
        b = run_trace(clean_channels, config, kind="messaging", duration=10.0, seed=3)
        assert a == b


class TestLossyTrace:
    """Two 5%-loss channels at κ = µ = 1: every lost symbol opens a gap in
    the tunnel's symbol stream."""

    CONFIG = ProtocolConfig(kappa=1.0, mu=1.0, symbol_size=256)

    @pytest.fixture
    def lossy_channels(self):
        return ChannelSet.from_vectors(
            risks=[0.0] * 2, losses=[0.05] * 2, delays=[0.01] * 2, rates=[40.0] * 2
        )

    def test_a_gap_strands_no_later_datagram(self, lossy_channels):
        result = run_trace(lossy_channels, self.CONFIG, kind="messaging", duration=30.0, seed=3)
        assert result.sent == 32
        assert result.delivered >= 28

    def test_intact_matches_in_order(self, lossy_channels):
        result = run_trace(lossy_channels, self.CONFIG, kind="web", duration=30.0, seed=1)
        assert result.delivered < result.sent
        assert result.intact == result.delivered
