"""The fleet workload: a multi-tenant many-flow run in one call.

:func:`run_fleet` synthesizes a deterministic fleet (see
:func:`repro.fleet.spec.synthesize_fleet`), executes it through
:class:`~repro.fleet.runner.FleetRunner`, and returns the merged
:class:`~repro.fleet.runner.FleetReport`.  This is the engine behind
``repro fleet`` and the ledger's ``fleet_synth``/``fleet_auth`` workloads
(``benchmarks/ledger``); the docs live in docs/FLEET.md.
"""

from __future__ import annotations

from repro.fleet import FleetReport, FleetRunner, synthesize_fleet

__all__ = ["run_fleet"]


def run_fleet(
    flows: int = 256,
    shards: int = 1,
    flows_per_cell: int = 32,
    symbols_per_flow: int = 4,
    channels: int = 4,
    symbol_size: int = 64,
    synthetic: bool = True,
    auth: bool = False,
    spec_id: str = "fleet/default",
) -> FleetReport:
    """Run a synthesized fleet of ``flows`` flows over ``shards`` workers.

    Args:
        flows: fleet size (flows are spread over the default gold /
            silver / bronze tenants).
        shards: worker processes; the report is byte-identical for any
            value (docs/FLEET.md).
        flows_per_cell: flows sharing one simulated channel set.
        symbols_per_flow: source symbols each flow offers, at 4 per unit
            time.
        channels: channels per cell (their shape and the mux are
            :data:`repro.fleet.runner.CELL_SHAPE`).
        symbol_size: payload bytes per source symbol.
        synthetic: True skips real share payloads (pure scale runs);
            False splits and reconstructs real secrets.
        auth: arm authenticated shares per cell (requires
            ``synthetic=False``; tenant flows get isolated per-flow MAC
            keys -- see docs/AUTH.md).
        spec_id: sweep spec id (part of every cell's seed derivation).
    """
    fleet = synthesize_fleet(flows, symbols=symbols_per_flow)
    runner = FleetRunner(shards=shards, flows_per_cell=flows_per_cell)
    return runner.run(
        fleet,
        spec_id=spec_id,
        channels=channels,
        symbol_size=symbol_size,
        synthetic=synthetic,
        auth=auth,
    )
