"""Fleet flows under the resilience layer: flow-keyed repair, tenant
isolation, per-tenant κ floors through quarantine.

Multiple flows share one resilient sender here, with overlapping per-flow
sequence numbers (every flow counts from 0).  That overlap is the point:
any repair or delivery that ignored the flow id would visibly corrupt
another flow's stream, so payload equality per (flow, seq) is a direct
cross-tenant-isolation check.
"""

from repro.core.planner import Requirements, plan_max_rate
from repro.netsim.faults import FaultEvent, FaultPlan
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.resilience import ResilienceManager
from repro.protocol.scheduler import ExplicitScheduler
from repro.workloads.setups import diverse_setup
from repro.workloads.setups import testbed_fault_plan as fault_plan_for

REQUIREMENTS = Requirements(max_risk=0.02)
#: The 100 Mbps channel the plan leans on; faulting it matters.
FAULT_CHANNEL = 4
#: At max_risk 0.02 the Diverse plan keeps every atom's k >= 2 -- that
#: is the tenants' κ floor.  Each flow draws from the planned schedule
#: with its own RNG stream, so the fault channel carries real traffic
#: and burst loss produces repairable partial symbols.
FLOW_KAPPA = 2.0


def build(fault_plan=None, seed=11, interval=0.02, end=35.0):
    """A resilient A -> B run with two tenant flows sharing the sender."""
    channels = diverse_setup()
    registry = RngRegistry(seed)
    config = ProtocolConfig(symbol_size=64, share_synthetic=False)
    network = PointToPointNetwork(channels, config.symbol_size, registry)
    if fault_plan is not None:
        network.apply_faults(fault_plan)
    plan = plan_max_rate(channels, REQUIREMENTS)
    node_a, node_b = network.node_pair(config, registry, schedule=plan.schedule)
    manager = ResilienceManager(
        network, node_a, node_b, registry, requirements=REQUIREMENTS
    )
    for flow in (1, 2):
        node_a.sender.flow_samplers[flow] = ExplicitScheduler(
            plan.schedule, registry.stream(f"flow{flow}.sched")
        )

    engine = network.engine
    payload_rng = registry.stream("test.payload")
    offered = {}

    def offer(flow):
        seq = node_a.sender._seqs.get(flow, 0)
        payload = payload_rng.bytes(config.symbol_size)
        if node_a.sender.offer(payload, flow=flow):
            offered[(flow, seq)] = payload
        next_flow = 2 if flow == 1 else 1
        if engine.now + interval < end:
            engine.schedule(interval, offer, next_flow)

    delivered = {}
    node_b.receiver.on_deliver = (
        lambda flow, seq, payload, delay: delivered.setdefault((flow, seq), payload)
    )
    engine.schedule_at(0.0, offer, 1)
    return network, node_a, node_b, manager, offered, delivered


def burst_plan():
    return fault_plan_for("burst", 100.0, 250.0, channel=FAULT_CHANNEL)


class TestFlowKeyedRepair:
    def test_nack_repair_is_keyed_by_flow(self):
        network, _, node_b, manager, offered, delivered = build(
            fault_plan=burst_plan()
        )
        network.engine.run_until(35.0)
        stats = manager.stats
        assert stats.nacks_received >= 1
        assert stats.repair_shares_sent >= 1
        assert node_b.receiver.stats.repair_recovered >= 1
        # Every NACK found its symbol under its (flow, seq) key.
        assert manager.repair_buffer.unknown_nacks == 0

    def test_repair_never_crosses_flows(self):
        """Sequence numbers overlap across flows; a repair (or delivery)
        that dropped the flow key would hand one tenant another tenant's
        payload.  Exact payload equality per (flow, seq) rules that out."""
        network, _, node_b, manager, offered, delivered = build(
            fault_plan=burst_plan()
        )
        network.engine.run_until(35.0)
        assert node_b.receiver.stats.repair_recovered >= 1
        assert delivered, "nothing delivered"
        seqs = {seq for (_flow, seq) in delivered}
        both = [seq for seq in seqs
                if (1, seq) in delivered and (2, seq) in delivered]
        assert both, "expected overlapping per-flow sequence numbers"
        for key, payload in delivered.items():
            assert payload == offered[key], f"cross-flow corruption at {key}"
        # The two flows carried different payloads at the same seq, so the
        # equality above is discriminating, not vacuous.
        assert any(delivered[(1, seq)] != delivered[(2, seq)] for seq in both)


class TestKappaFloorUnderQuarantine:
    def test_per_tenant_kappa_floor_holds_through_outage(self):
        """Quarantine removes channels, never thresholds: every symbol of
        every tenant flow keeps k >= its tenant's κ floor while a channel
        is out, because per-flow samplers are untouched by failover."""
        plan = FaultPlan([
            FaultEvent(10.0, "partition", FAULT_CHANNEL),
            FaultEvent(25.0, "heal", FAULT_CHANNEL),
        ])
        network, node_a, node_b, manager, offered, delivered = build(
            fault_plan=plan
        )
        min_k = {}
        inner = node_a.sender.on_transmit  # the repair buffer's hook

        def audit(flow, seq, k, m, offered_at, shares):
            min_k[flow] = min(min_k.get(flow, 99), k)
            if inner is not None:
                inner(flow, seq, k, m, offered_at, shares)

        node_a.sender.on_transmit = audit
        network.engine.run_until(35.0)
        assert manager.stats.quarantines >= 1
        for flow in (1, 2):
            assert min_k[flow] >= FLOW_KAPPA
        # Traffic kept flowing for both tenants during the outage.
        flows_delivered = {flow for (flow, _seq) in delivered}
        assert flows_delivered == {1, 2}
