"""The DRR flow multiplexer: fairness, bounds, back-pressure."""

import pytest

from repro.core.channel import Channel, ChannelSet
from repro.fleet import FlowMux
from repro.netsim.rng import RngRegistry
from repro.protocol.config import SOURCE_QUEUE_LIMIT, ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.scheduler import DynamicParameterSampler


def build(
    channels=2,
    rate=2.0,
    link_queue=1,
    fill_sender=True,
    quantum=1.0,
    queue_limit=64,
    seed=3,
):
    """A two-node synthetic network with a mux on node A's sender.

    With ``fill_sender`` the sender's source queue starts full of flow-0
    symbols, so every slot it frees afterwards goes to the mux and the
    mux's DRR order is observable from its first offer.
    """
    channel_set = ChannelSet(
        Channel(risk=0.1, loss=0.0, delay=0.01, rate=rate) for _ in range(channels)
    )
    registry = RngRegistry(seed)
    network = PointToPointNetwork(
        channel_set, symbol_size=64, rng_registry=registry, queue_limit=link_queue
    )
    config = ProtocolConfig(
        kappa=1.0,
        mu=1.0,
        symbol_size=64,
        share_synthetic=True,
    )
    node_a, node_b = network.node_pair(config, registry)
    while fill_sender and node_a.sender.backlog < SOURCE_QUEUE_LIMIT:
        assert node_a.sender.offer(None)
    mux = FlowMux(node_a.sender, quantum=quantum, queue_limit=queue_limit)
    return network, node_a, node_b, mux, registry


def offer_order(node_a):
    """Wrap the sender to record the flow of every accepted offer."""
    order = []
    original = node_a.sender.offer

    def recording(payload=None, flow=0):
        accepted = original(payload, flow=flow)
        if accepted:
            order.append(flow)
        return accepted

    node_a.sender.offer = recording
    return order


class TestRegistration:
    def test_flow_zero_is_reserved(self):
        _, _, _, mux, _ = build()
        with pytest.raises(ValueError, match="flow ids start at 1"):
            mux.register(0)

    def test_double_registration_rejected(self):
        _, _, _, mux, _ = build()
        mux.register(1)
        with pytest.raises(ValueError, match="already registered"):
            mux.register(1)

    def test_bad_weight_rejected(self):
        _, _, _, mux, _ = build()
        with pytest.raises(ValueError, match="weight"):
            mux.register(1, weight=0.0)

    def test_unregistered_flow_rejected(self):
        _, _, _, mux, _ = build()
        with pytest.raises(KeyError):
            mux.enqueue(7)

    def test_sampler_is_registered_on_sender(self):
        _, node_a, _, mux, registry = build()
        sampler = DynamicParameterSampler(1.0, 2.0, registry.stream("flow1.sched"))
        mux.register(1, sampler=sampler)
        assert node_a.sender.flow_samplers[1] is sampler


class TestFairness:
    def test_weighted_drr_ratio(self):
        """A weight-2 flow drains twice the symbols of a weight-1 flow
        while both are backlogged."""
        network, node_a, _, mux, _ = build()
        order = offer_order(node_a)
        mux.register(1, weight=2.0)
        mux.register(2, weight=1.0)
        for _ in range(30):
            mux.enqueue(1)
            mux.enqueue(2)
        # Stop mid-contention: both queues must still be backlogged.
        network.engine.run_until(4.0)
        assert mux.backlog > 0
        from1 = order.count(1)
        from2 = order.count(2)
        assert from1 > from2
        assert abs(from1 - 2 * from2) <= 2  # DRR rounding at the window edge

    def test_equal_weights_alternate(self):
        network, node_a, _, mux, _ = build()
        order = offer_order(node_a)
        mux.register(1)
        mux.register(2)
        for _ in range(20):
            mux.enqueue(1)
            mux.enqueue(2)
        network.engine.run_until(4.0)
        assert mux.backlog > 0
        contended = order[2:]  # first offers may pass through pre-contention
        assert abs(contended.count(1) - contended.count(2)) <= 1

    def test_fractional_quantum_accumulates(self):
        """quantum < 1 still makes progress: credit builds across rounds."""
        network, node_a, _, mux, _ = build(quantum=0.25)
        order = offer_order(node_a)
        mux.register(1)
        for _ in range(4):
            mux.enqueue(1)
        network.engine.run_until(20.0)
        assert order.count(1) == 4


class TestBoundsAndBackpressure:
    def test_per_flow_queue_bound_drops(self):
        _, node_a, _, mux, _ = build(queue_limit=2)
        node_a.sender.admission_paused = True  # nothing drains downstream
        mux.register(1)
        assert mux.enqueue(1)
        assert mux.enqueue(1)
        assert not mux.enqueue(1)  # third exceeds the bound
        assert mux.stats.flows[1]["dropped"] == 1
        assert mux.stats.dropped == 1

    def test_uncontended_flow_passes_straight_through(self):
        network, node_a, _, mux, _ = build(rate=64.0, link_queue=16, fill_sender=False)
        mux.register(1)
        for _ in range(4):
            assert mux.enqueue(1)
        # With sender space available the mux holds nothing back.
        assert mux.backlog == 0
        assert node_a.sender.stats.symbols_offered == 4
        network.engine.run()
        assert node_a.sender.stats.symbols_sent == 4

    def test_backpressure_drains_everything_eventually(self):
        network, node_a, node_b, mux, _ = build()
        # The symbols build() queued ahead of the mux's are sent too.
        filled = node_a.sender.stats.symbols_offered
        mux.register(1)
        mux.register(2, weight=3.0)
        for _ in range(25):
            mux.enqueue(1)
            mux.enqueue(2)
        network.engine.run()
        assert mux.backlog == 0
        assert node_a.sender.stats.symbols_sent - filled == 50
        assert node_b.receiver.stats.symbols_delivered - filled == 50
        assert mux.stats.offer_failures == 0

    def test_stats_shape(self):
        _, _, _, mux, _ = build()
        mux.register(1)
        mux.enqueue(1)
        stats = mux.stats
        assert stats.enqueued == 1
        assert stats.flows[1]["enqueued"] == 1
        assert set(stats.flows[1]) == {"enqueued", "offered", "dropped"}
