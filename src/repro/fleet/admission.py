"""Per-tenant admission control for fleet flows.

Admission is the fleet's privacy gate: a flow whose configured average
threshold κ sits below its tenant's floor is refused *before* any share
is scheduled, so the multiplexer never has to weaken a tenant's secrecy
requirement to make room.  (This mirrors the resilience layer's DEGRADED
rule -- shed load rather than leak -- applied at flow granularity.)

Decisions are pure functions of (tenant policy, flows admitted so far),
evaluated in flow-id order by :meth:`AdmissionController.filter`, so the
admitted set is independent of process count and submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.fleet.spec import FlowSpec, Tenant

__all__ = ["AdmissionController", "AdmissionStats"]

#: Rejection reasons, in reporting order.
REASONS = ("unknown_tenant", "kappa_floor", "quota")


@dataclass
class AdmissionStats:
    """Counters kept by one controller."""

    admitted: int = 0
    rejected: Dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in REASONS}
    )

    def as_dict(self) -> dict:
        return {"admitted": self.admitted, "rejected": dict(self.rejected)}


class AdmissionController:
    """Admits flows against tenant κ floors and quotas.

    Args:
        tenants: the tenant policies to enforce.
    """

    def __init__(self, tenants: Iterable[Tenant]):
        self.tenants: Dict[str, Tenant] = {}
        for tenant in tenants:
            if tenant.name in self.tenants:
                raise ValueError(f"duplicate tenant {tenant.name!r}")
            self.tenants[tenant.name] = tenant
        self.stats = AdmissionStats()
        self._counts: Dict[str, int] = {name: 0 for name in self.tenants}

    def admit(self, flow: FlowSpec) -> Optional[str]:
        """Decide one flow; returns None on admission, else the reason.

        Admission mutates the tenant's quota count, so decide flows in a
        deterministic order (``filter`` uses flow-id order).
        """
        tenant = self.tenants.get(flow.tenant)
        if tenant is None:
            return self._reject("unknown_tenant")
        if flow.kappa < tenant.min_kappa:
            return self._reject("kappa_floor")
        if tenant.max_flows is not None and self._counts[tenant.name] >= tenant.max_flows:
            return self._reject("quota")
        self._counts[tenant.name] += 1
        self.stats.admitted += 1
        return None

    def filter(
        self, flows: Iterable[FlowSpec]
    ) -> Tuple[List[FlowSpec], Dict[int, str]]:
        """Partition flows into (admitted, {flow id: rejection reason}).

        Flows are decided in flow-id order regardless of input order, so
        quota outcomes are reproducible.
        """
        admitted: List[FlowSpec] = []
        rejected: Dict[int, str] = {}
        for flow in sorted(flows, key=lambda f: f.flow):
            reason = self.admit(flow)
            if reason is None:
                admitted.append(flow)
            else:
                rejected[flow.flow] = reason
        return admitted, rejected

    def _reject(self, reason: str) -> str:
        self.stats.rejected[reason] += 1
        return reason
