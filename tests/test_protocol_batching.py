"""Stats JSON shape: sender and receiver counters serialise as flat dicts.

Every counter aggregates over all flows; neither direction carries a
per-flow ``flows`` block.
"""

from repro.core.channel import Channel, ChannelSet
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.receiver import ReceiverStats
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.sender import SenderStats


def run_once(seed=5, symbols=4):
    """One seeded flow-0 A -> B run; returns (sender stats, receiver stats)."""
    channels = ChannelSet(
        Channel(risk=0.1, loss=0.0, delay=0.02, rate=4.0) for _ in range(3)
    )
    registry = RngRegistry(seed)
    config = ProtocolConfig(kappa=2.0, mu=2.0, symbol_size=64)
    network = PointToPointNetwork(
        channels, config.symbol_size, registry, queue_limit=2
    )
    node_a, node_b = network.node_pair(config, registry)
    payload_rng = registry.stream("test.payload")
    for _ in range(symbols):
        assert node_a.send(payload_rng.bytes(config.symbol_size))
    network.engine.run()
    return node_a.sender.stats.as_dict(), node_b.receiver.stats.as_dict()


class TestStatsJsonShape:
    """Pre-fleet callers see the exact historical JSON."""

    HISTORICAL_SENDER_KEYS = {
        "symbols_offered", "symbols_sent", "source_drops", "shares_sent",
        "share_send_failures", "readiness_stalls", "admission_paused_drops",
        "auth_tagged_shares",
    }

    def test_sender_stats_flow0_shape_unchanged(self):
        stats = SenderStats()
        stats.symbols_offered += 1
        stats.symbols_sent += 1
        data = stats.as_dict()
        assert "flows" not in data
        assert set(data) == self.HISTORICAL_SENDER_KEYS

    def test_receiver_stats_flow0_shape_unchanged(self):
        stats = ReceiverStats()
        stats.shares_received += 1
        stats.symbols_delivered += 1
        data = stats.as_dict()
        assert "flows" not in data

    def test_single_flow_simulation_keeps_historical_shape(self):
        """End to end: a flow-0-only run serialises with no flows block in
        either direction, so existing reports and baselines are stable."""
        sender_dict, receiver_dict = run_once()
        assert "flows" not in sender_dict
        assert "flows" not in receiver_dict
        assert receiver_dict["symbols_delivered"] == 4
