"""Fleet execution: admission, cell sharding, merge, κ-compliance audit.

:class:`FleetRunner` turns a :class:`~repro.fleet.spec.FleetSpec` into a
grid of cell sweep points and executes them through
:class:`~repro.sweep.runner.SweepRunner` -- serially with ``shards=1``,
or fanned out over a process pool.  Shard parity is inherited, not
re-implemented: each cell's seed derives from its parameters alone
(:func:`repro.sweep.spec.derive_seed`), so the merged
:class:`FleetReport` -- every per-flow digest included -- is
byte-identical for any shard count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.fleet.admission import AdmissionController
from repro.fleet.cell import run_cell
from repro.fleet.spec import FleetSpec
from repro.sweep.runner import SweepRunner, values
from repro.sweep.spec import SweepSpec

__all__ = ["FleetReport", "FleetRunner"]

#: Every cell's channel shape (``loss``, ``delay``, ``rate``) and mux
#: (``quantum``, ``queue_limit``).  They enter each cell's sweep-point
#: parameters, so they are part of every cell's derived seed.
CELL_SHAPE: Dict[str, Any] = {
    "loss": 0.0,
    "delay": 0.05,
    "rate": 64.0,
    "quantum": 1.0,
    "queue_limit": 64,
}


@dataclass
class FleetReport:
    """The merged outcome of one fleet run.

    Attributes:
        spec_id: the sweep spec id the cells ran under.
        shards: worker processes used.
        cells: cell count.
        flows_total: flows in the input fleet.
        admitted: flows past admission.
        rejected: rejection counts by reason.
        rejected_flows: flow id -> reason, for every refused flow.
        delivered_total: reconstructed symbols across the fleet.
        offered_total: symbols the mux handed to senders.
        mux_drops_total: payloads shed at per-flow mux queues.
        kappa_floor_violations: admitted flows whose configured κ sits
            below their tenant's floor (always 0 unless admission is
            bypassed; reported so regressions are loud).
        per_flow: flow id -> the cell's per-flow record (delivery count,
            digest, κ audit...).
        tenants: tenant name -> fleet-level summary (flows, delivered,
            weakest observed average κ, the floor, compliance).
        fleet_digest: SHA-256 over every per-flow digest in flow order --
            one fingerprint for shard-parity checks.
        wall_time: sweep wall-clock seconds.
        flows_per_sec: admitted flows divided by wall time.
    """

    spec_id: str
    shards: int
    cells: int = 0
    flows_total: int = 0
    admitted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    rejected_flows: Dict[int, str] = field(default_factory=dict)
    delivered_total: int = 0
    offered_total: int = 0
    mux_drops_total: int = 0
    kappa_floor_violations: int = 0
    per_flow: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    fleet_digest: str = ""
    wall_time: float = 0.0
    flows_per_sec: float = 0.0

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["rejected_flows"] = {
            str(flow): reason for flow, reason in sorted(self.rejected_flows.items())
        }
        out["per_flow"] = {
            str(flow): dict(record) for flow, record in sorted(self.per_flow.items())
        }
        return out


class FleetRunner:
    """Runs fleets; see the module docstring for semantics.

    Args:
        shards: worker processes for cell execution (1 = serial, the
            reference path; any value yields byte-identical reports).
        flows_per_cell: how many flows share one cell's channels.
    """

    def __init__(self, shards: int = 1, flows_per_cell: int = 32):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if flows_per_cell < 1:
            raise ValueError(f"flows_per_cell must be >= 1, got {flows_per_cell}")
        self.shards = shards
        self.flows_per_cell = flows_per_cell

    def run(
        self,
        fleet: FleetSpec,
        spec_id: str = "fleet",
        channels: int = 4,
        symbol_size: int = 64,
        synthetic: bool = True,
        auth: bool = False,
    ) -> FleetReport:
        """Admit, shard, execute and merge one fleet.

        The keyword knobs describe the per-cell environment (channel
        count, symbol size, payloads) and become part of every cell's
        sweep-point parameters, beside :data:`CELL_SHAPE` -- changing any
        of them changes every cell's derived seed, exactly like editing a
        sweep grid.  ``auth`` arms authenticated shares (docs/AUTH.md) and
        requires real payloads; it enters the cell parameters only when
        armed, so every existing unauthenticated cell keeps its exact seed.

        Raises ValueError before any cell runs when ``channels`` or
        ``symbol_size`` is below 1, or when an admitted flow's ⌈µ⌉ exceeds
        ``channels``: such a symbol never finds enough writable ports and
        stalls every flow behind it in the cell's shared sender.
        """
        if auth and synthetic:
            raise ValueError("auth requires real payloads (synthetic=False)")
        if channels < 1 or symbol_size < 1:
            raise ValueError(
                f"need channels >= 1 and symbol_size >= 1, got channels={channels}, "
                f"symbol_size={symbol_size}"
            )
        report = FleetReport(
            spec_id=spec_id, shards=self.shards, flows_total=len(fleet.flows)
        )
        controller = AdmissionController(fleet.tenants)
        admitted, rejected_flows = controller.filter(fleet.flows)
        report.admitted = len(admitted)
        report.rejected = dict(controller.stats.rejected)
        report.rejected_flows = rejected_flows
        for flow in admitted:
            if math.ceil(flow.mu) > channels:
                raise ValueError(
                    f"flow {flow.flow} (µ={flow.mu}) needs {math.ceil(flow.mu)} "
                    f"channels, the cells have {channels}"
                )

        grid: List[Dict[str, Any]] = []
        for index in range(0, len(admitted), self.flows_per_cell):
            chunk = admitted[index : index + self.flows_per_cell]
            grid.append(
                {
                    "cell": len(grid),
                    "flows": [flow.as_dict() for flow in chunk],
                }
            )
        report.cells = len(grid)
        base = {
            "tenants": [tenant.as_dict() for tenant in fleet.tenants],
            "channels": channels,
            "symbol_size": symbol_size,
            "synthetic": synthetic,
            **CELL_SHAPE,
        }
        if auth:
            base["auth"] = True

        cell_values: List[Dict[str, Any]] = []
        sweep = SweepRunner(jobs=self.shards)
        if grid:
            spec = SweepSpec(spec_id=spec_id, grid=grid, base=base)
            cell_values = values(sweep.run(spec, run_cell))
        report.wall_time = sweep.stats.wall_time

        self._merge(fleet, report, cell_values)
        if report.wall_time > 0:
            report.flows_per_sec = report.admitted / report.wall_time
        return report

    # -- internals --------------------------------------------------------------

    def _merge(
        self,
        fleet: FleetSpec,
        report: FleetReport,
        cell_values: List[Dict[str, Any]],
    ) -> None:
        for value in cell_values:
            for flow_key, record in sorted(
                value["flows"].items(), key=lambda item: int(item[0])
            ):
                flow = int(flow_key)
                report.per_flow[flow] = record
                report.delivered_total += record["delivered"]
                report.offered_total += record["offered"]
                report.mux_drops_total += record["mux_drops"]
                if record["kappa"] < record["min_kappa"]:
                    report.kappa_floor_violations += 1

        digest = hashlib.sha256()
        for flow in sorted(report.per_flow):
            digest.update(f"{flow}:{report.per_flow[flow]['digest']}\n".encode())
        report.fleet_digest = digest.hexdigest()

        for tenant in fleet.tenants:
            records = [
                record
                for record in report.per_flow.values()
                if record["tenant"] == tenant.name
            ]
            observed = [
                record["avg_kappa"]
                for record in records
                if record["avg_kappa"] is not None
            ]
            report.tenants[tenant.name] = {
                "flows": len(records),
                "delivered": sum(record["delivered"] for record in records),
                "min_kappa": tenant.min_kappa,
                "weakest_avg_kappa": min(observed) if observed else None,
                # Compliance is a *configuration* property: every admitted
                # flow's target κ meets the floor (the dynamic sampler's
                # expectation is exactly that target).
                "compliant": all(
                    record["kappa"] >= tenant.min_kappa for record in records
                ),
            }
