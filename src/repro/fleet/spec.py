"""Fleet descriptors: tenants, flows, and deterministic synthesis.

A *tenant* states a policy: the weakest average threshold κ it will
tolerate for its traffic (its privacy floor, in the sense of the paper's
secrecy requirement R₁), a fair-share weight, and an optional flow quota.
A *flow* is one secret stream owned by a tenant: its (κ, µ) operating
point, offered rate and symbol budget.  A :class:`FleetSpec` bundles both
and round-trips losslessly through JSON-able dicts, which is what lets a
fleet slice ride inside a :class:`~repro.sweep.spec.SweepPoint` -- the
point's parameters *are* the flow descriptors, so its SHA-256-derived
seed covers them and sharding cannot change any flow's randomness.

Synthesis is deliberately RNG-free: :func:`synthesize_fleet` derives every
flow's tenant and operating point arithmetically from its id, so the same
arguments always produce the same fleet, in every process, with no seed
to thread through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["FleetSpec", "FlowSpec", "Tenant", "synthesize_fleet"]


def _require_finite(record: object, *names: str) -> None:
    """Reject a NaN or infinite value in any of ``record``'s named fields."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Tenant:
    """One tenant's policy envelope.

    Attributes:
        name: unique tenant label.
        min_kappa: the weakest average threshold κ the tenant accepts for
            any of its flows (admission rejects flows below it).
        weight: deficit-round-robin weight -- a tenant of weight 2 drains
            twice the symbols per round of a weight-1 tenant's flow.
        max_flows: admission quota; ``None`` means unbounded.
    """

    name: str
    min_kappa: float = 1.0
    weight: float = 1.0
    max_flows: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        _require_finite(self, "min_kappa", "weight")
        if self.max_flows is not None:
            _require_finite(self, "max_flows")
        if self.min_kappa < 1.0:
            raise ValueError(f"min_kappa must be >= 1, got {self.min_kappa}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.max_flows is not None and self.max_flows < 0:
            raise ValueError(f"max_flows must be >= 0, got {self.max_flows}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "min_kappa": self.min_kappa,
            "weight": self.weight,
            "max_flows": self.max_flows,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Tenant":
        return cls(
            name=data["name"],
            min_kappa=float(data["min_kappa"]),
            weight=float(data["weight"]),
            max_flows=data.get("max_flows"),
        )


@dataclass(frozen=True)
class FlowSpec:
    """One secret stream inside a fleet.

    Attributes:
        flow: wire-level flow id, unique in the fleet and >= 1 (0 is the
            reserved single-flow default stream).
        tenant: owning tenant's name.
        kappa: target average threshold for this flow's share schedule.
        mu: target average multiplicity.
        rate: offered source symbols per unit time.
        symbols: total source symbols the flow offers.
        start: offset of the first symbol (unit time).
    """

    flow: int
    tenant: str
    kappa: float
    mu: float
    rate: float = 1.0
    symbols: int = 1
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.flow < 1:
            raise ValueError(f"flow ids start at 1, got {self.flow}")
        _require_finite(self, "kappa", "mu", "rate", "symbols", "start")
        if not 1.0 <= self.kappa <= self.mu:
            raise ValueError(f"need 1 <= κ <= µ, got κ={self.kappa}, µ={self.mu}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.symbols < 0:
            raise ValueError(f"symbols must be >= 0, got {self.symbols}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "flow": self.flow,
            "tenant": self.tenant,
            "kappa": self.kappa,
            "mu": self.mu,
            "rate": self.rate,
            "symbols": self.symbols,
            "start": self.start,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowSpec":
        return cls(
            flow=int(data["flow"]),
            tenant=data["tenant"],
            kappa=float(data["kappa"]),
            mu=float(data["mu"]),
            rate=float(data["rate"]),
            symbols=int(data["symbols"]),
            start=float(data["start"]),
        )


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet: its tenants and their flows.

    Flows are kept in flow-id order regardless of construction order, so
    a spec enumerates identically however it was assembled.
    """

    tenants: Tuple[Tenant, ...] = field(default_factory=tuple)
    flows: Tuple[FlowSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(
            self, "flows", tuple(sorted(self.flows, key=lambda f: f.flow))
        )
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {sorted(names)}")
        ids = [flow.flow for flow in self.flows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate flow ids in fleet")
        known = set(names)
        for flow in self.flows:
            if flow.tenant not in known:
                raise ValueError(
                    f"flow {flow.flow} references unknown tenant {flow.tenant!r}"
                )

    def tenant(self, name: str) -> Tenant:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(name)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (the substrate for sweep-point params)."""
        return {
            "tenants": [tenant.as_dict() for tenant in self.tenants],
            "flows": [flow.as_dict() for flow in self.flows],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetSpec":
        return cls(
            tenants=tuple(Tenant.from_dict(entry) for entry in data["tenants"]),
            flows=tuple(FlowSpec.from_dict(entry) for entry in data["flows"]),
        )


#: Default tenant mix for synthesized fleets: a strict-privacy tenant with
#: double fair-share weight, a mid tier, and a best-effort tier.
DEFAULT_TENANTS: Tuple[Tenant, ...] = (
    Tenant(name="gold", min_kappa=2.0, weight=2.0),
    Tenant(name="silver", min_kappa=1.5, weight=1.0),
    Tenant(name="bronze", min_kappa=1.0, weight=1.0),
)

#: (κ, µ) operating points cycled across synthesized flows, all feasible
#: on a 4-channel set.  Each tenant only draws points at or above its
#: floor, so a synthesized fleet always passes admission.
_PROFILES: Tuple[Tuple[float, float], ...] = (
    (1.0, 2.0),
    (1.5, 3.0),
    (2.0, 3.0),
    (2.0, 4.0),
    (2.5, 4.0),
    (3.0, 4.0),
)

#: Start offset between consecutive tenants' flows in a synthesized fleet.
STAGGER = 0.05


def synthesize_fleet(
    flows: int,
    tenants: Sequence[Tenant] = DEFAULT_TENANTS,
    rate: float = 4.0,
    symbols: int = 4,
) -> FleetSpec:
    """A deterministic fleet of ``flows`` flows over ``tenants``.

    Flow ``f`` (1-based) belongs to tenant ``(f - 1) % len(tenants)`` and
    takes the next (κ, µ) profile -- restricted to profiles at or above
    the tenant's κ floor -- in a fixed cycle.  Starts are staggered by
    :data:`STAGGER` per flow so arrivals interleave rather than all landing
    at time zero.  Everything is plain arithmetic on the flow id: no RNG, no
    ambient state, identical output in every process.
    """
    if flows < 0:
        raise ValueError(f"flows must be >= 0, got {flows}")
    if not tenants:
        raise ValueError("need at least one tenant")
    eligible: Dict[str, List[Tuple[float, float]]] = {}
    for tenant in tenants:
        fitting = [pair for pair in _PROFILES if pair[0] >= tenant.min_kappa]
        if not fitting:
            raise ValueError(
                f"no synthesis profile satisfies tenant {tenant.name!r} "
                f"(min_kappa={tenant.min_kappa})"
            )
        eligible[tenant.name] = fitting
    specs = []
    for flow in range(1, flows + 1):
        tenant = tenants[(flow - 1) % len(tenants)]
        profiles = eligible[tenant.name]
        kappa, mu = profiles[((flow - 1) // len(tenants)) % len(profiles)]
        specs.append(
            FlowSpec(
                flow=flow,
                tenant=tenant.name,
                kappa=kappa,
                mu=mu,
                rate=rate,
                symbols=symbols,
                start=STAGGER * ((flow - 1) % len(tenants)),
            )
        )
    return FleetSpec(tenants=tuple(tenants), flows=tuple(specs))
