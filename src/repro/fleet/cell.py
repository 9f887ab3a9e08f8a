"""One fleet cell: a shared-channel simulation carrying a slice of flows.

A *cell* is the unit of sharding.  Flows inside a cell genuinely contend:
they share one channel set, one sender (behind the DRR mux) and one
receiver, so fairness and back-pressure are simulated faithfully.  Flows
in different cells are independent by construction, which is what makes
fleet execution embarrassingly parallel *and* byte-identical under any
sharding: each cell is a :class:`~repro.sweep.spec.SweepPoint` whose
SHA-256-derived seed depends only on the cell's parameters (its flow
descriptors included), never on which worker runs it or when.

:func:`run_cell` is module-level and takes only JSON-able params plus the
derived seed, so it is picklable and runs identically in-process and in a
pool worker -- the same contract as every sweep point function.

The per-flow *delivery digest* is the parity instrument: a SHA-256 over
the flow's reconstructed symbols in delivery order (sequence number,
payload hash, delivery delay).  Two runs of the same fleet agree on every
digest iff their per-flow delivery traces are byte-identical.

A real-payload cell draws each flow's payloads from its own
``flow<N>.src`` stream through :class:`~repro.netsim.rng.RandomBytes`,
which serves exactly the bytes of a per-arrival
``integers(0, 256, size=symbol_size, dtype=uint8)`` draw, from one small
block draw per few symbols.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

from repro.core.channel import Channel, ChannelSet
from repro.fleet.mux import FlowMux
from repro.fleet.spec import FleetSpec
from repro.netsim.rng import RandomBytes, RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.scheduler import DynamicParameterSampler

__all__ = ["run_cell"]


def _digest_update(digest: "hashlib._Hash", seq: int, payload: Optional[bytes], delay: float) -> None:
    body = "-" if payload is None else hashlib.sha256(payload).hexdigest()
    digest.update(f"{seq}:{body}:{delay!r}\n".encode())


def run_cell(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Simulate one cell; the sweep point function of the fleet runner.

    Args:
        params: JSON-able cell description -- ``cell`` (index), ``flows``
            and ``tenants`` (descriptor dicts, see :mod:`repro.fleet.spec`),
            plus the shared knobs ``channels``, ``symbol_size``,
            ``synthetic`` and the fleet runner's ``CELL_SHAPE`` (``loss``,
            ``delay``, ``rate``, ``quantum``, ``queue_limit``); the
            optional ``auth`` knob (present only when armed, so existing
            cell seeds are untouched) authenticates every share under a
            cell root key derived from the cell's own seed.
        seed: the point's derived seed -- the only randomness root.

    Returns:
        A JSON-able result: per-flow delivery counts, digests and κ audit,
        plus the cell's sender/receiver/mux counters.
    """
    fleet = FleetSpec.from_dict({"tenants": params["tenants"], "flows": params["flows"]})
    synthetic = bool(params["synthetic"])
    auth = bool(params.get("auth", False))
    symbol_size = int(params["symbol_size"])
    n = int(params["channels"])
    channels = ChannelSet(
        Channel(
            risk=0.1,
            loss=float(params["loss"]),
            delay=float(params["delay"]),
            rate=float(params["rate"]),
        )
        for _ in range(n)
    )
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, symbol_size, registry)
    auth_config = None
    if auth:
        # The cell's root key derives from its seed -- which itself derives
        # from the cell's identity alone -- so any shard computes the same
        # keys; per-flow keys then derive by flow id, so every tenant flow
        # is authenticated under its own key (docs/AUTH.md).
        from repro.protocol.auth import AuthConfig, derive_root_key

        auth_config = AuthConfig(root_key=derive_root_key(seed))
    config = ProtocolConfig(
        kappa=1.0,
        mu=1.0,
        symbol_size=symbol_size,
        share_synthetic=synthetic,
        auth=auth_config,
    )
    node_a, node_b = network.node_pair(config, registry)
    mux = FlowMux(
        node_a.sender,
        quantum=float(params["quantum"]),
        queue_limit=int(params["queue_limit"]),
    )

    sources: Dict[int, RandomBytes] = {}
    for flow_spec in fleet.flows:
        tenant = fleet.tenant(flow_spec.tenant)
        sampler = DynamicParameterSampler(
            flow_spec.kappa, flow_spec.mu, registry.stream(f"flow{flow_spec.flow}.sched")
        )
        mux.register(flow_spec.flow, weight=tenant.weight, sampler=sampler)
        if not synthetic:
            sources[flow_spec.flow] = RandomBytes(registry.stream(f"flow{flow_spec.flow}.src"))

    digests: Dict[int, "hashlib._Hash"] = {
        flow_spec.flow: hashlib.sha256() for flow_spec in fleet.flows
    }
    delivered: Dict[int, int] = {flow_spec.flow: 0 for flow_spec in fleet.flows}

    def record(flow: int, seq: int, payload: Optional[bytes], delay: float) -> None:
        delivered[flow] += 1
        _digest_update(digests[flow], seq, payload, delay)

    node_b.receiver.on_deliver = record

    def arrive(flow: int) -> None:
        mux.enqueue(flow, None if synthetic else sources[flow].bytes(symbol_size))

    engine = network.engine
    for flow_spec in fleet.flows:
        for i in range(flow_spec.symbols):
            engine.schedule_at(flow_spec.start + i / flow_spec.rate, arrive, flow_spec.flow)
    engine.run()
    network.teardown(node_a, node_b)

    # The κ audit: each flow's picks and their summed k.
    picks = dict.fromkeys(delivered, 0)
    k_sums = dict.fromkeys(delivered, 0)
    for (flow, k, _m), count in node_a.sender.schedule_picks.items():
        picks[flow] += count
        k_sums[flow] += k * count

    flows_out: Dict[str, Any] = {}
    for flow_spec in fleet.flows:
        flow = flow_spec.flow
        tenant = fleet.tenant(flow_spec.tenant)
        mux_block = mux.stats.flows.get(
            flow, {"enqueued": 0, "offered": 0, "dropped": 0}
        )
        flows_out[str(flow)] = {
            "tenant": flow_spec.tenant,
            "kappa": flow_spec.kappa,
            "min_kappa": tenant.min_kappa,
            "enqueued": mux_block["enqueued"],
            "offered": mux_block["offered"],
            "mux_drops": mux_block["dropped"],
            "delivered": delivered[flow],
            "digest": digests[flow].hexdigest(),
            "avg_kappa": k_sums[flow] / picks[flow] if picks[flow] else None,
            "picks": picks[flow],
        }
    return {
        "cell": int(params["cell"]),
        "flows": flows_out,
        "sender": node_a.sender.stats.as_dict(),
        "receiver": node_b.receiver.stats.as_dict(),
        "mux": {
            "rounds": mux.stats.rounds,
            "offer_failures": mux.stats.offer_failures,
        },
        "events": engine.events_processed,
    }
