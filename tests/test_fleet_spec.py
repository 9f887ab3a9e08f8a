"""Fleet descriptors: validation, round-trips, deterministic synthesis."""

import pytest

from repro.fleet import FleetSpec, FlowSpec, Tenant, synthesize_fleet
from repro.fleet.spec import STAGGER
from repro.sweep.spec import canonical_json


def tenant(name="acme", **kwargs):
    return Tenant(name=name, **kwargs)


class TestTenant:
    def test_defaults(self):
        t = tenant()
        assert t.min_kappa == 1.0
        assert t.weight == 1.0
        assert t.max_flows is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"min_kappa": 0.5},
            {"weight": 0.0},
            {"weight": -1.0},
            {"max_flows": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tenant(**{"name": "t", **kwargs})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["min_kappa", "weight", "max_flows"])
    def test_rejects_non_finite_numbers(self, name, value):
        with pytest.raises(ValueError, match=name):
            Tenant(**{"name": "t", name: value})
        with pytest.raises(ValueError, match=name):
            Tenant.from_dict({**tenant().as_dict(), name: value})

    def test_dict_roundtrip(self):
        t = Tenant(name="gold", min_kappa=2.0, weight=2.0, max_flows=5)
        assert Tenant.from_dict(t.as_dict()) == t


class TestFlowSpec:
    def test_dict_roundtrip(self):
        f = FlowSpec(flow=3, tenant="gold", kappa=2.0, mu=3.0, rate=8.0, symbols=16, start=0.5)
        assert FlowSpec.from_dict(f.as_dict()) == f

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flow": 0},  # 0 is the reserved default stream
            {"kappa": 0.5},
            {"kappa": 3.0, "mu": 2.0},  # κ > µ
            {"rate": 0.0},
            {"symbols": -1},
            {"start": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = {"flow": 1, "tenant": "t", "kappa": 1.0, "mu": 2.0}
        with pytest.raises(ValueError):
            FlowSpec(**{**base, **kwargs})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["kappa", "mu", "rate", "symbols", "start"])
    def test_rejects_non_finite_numbers(self, name, value):
        # An infinite µ once passed here and overflowed ceil(µ) mid-run.
        base = {"flow": 1, "tenant": "t", "kappa": 1.0, "mu": 2.0, "symbols": 3}
        with pytest.raises(ValueError, match=name):
            FlowSpec(**{**base, name: value})
        if name != "symbols":  # from_dict's int() already refuses these
            with pytest.raises(ValueError, match=name):
                FlowSpec.from_dict({**FlowSpec(**base).as_dict(), name: value})

    def test_infinite_kappa_and_mu_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            FlowSpec(flow=1, tenant="t", kappa=float("inf"), mu=float("inf"))


class TestFleetSpec:
    def test_flows_sorted_by_id(self):
        flows = [
            FlowSpec(flow=2, tenant="t", kappa=1.0, mu=2.0),
            FlowSpec(flow=1, tenant="t", kappa=1.0, mu=2.0),
        ]
        fleet = FleetSpec(tenants=(tenant("t"),), flows=tuple(flows))
        assert [f.flow for f in fleet.flows] == [1, 2]

    def test_duplicate_flow_ids_rejected(self):
        flows = [FlowSpec(flow=1, tenant="t", kappa=1.0, mu=2.0)] * 2
        with pytest.raises(ValueError, match="duplicate flow"):
            FleetSpec(tenants=(tenant("t"),), flows=tuple(flows))

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant"):
            FleetSpec(tenants=(tenant("t"), tenant("t")))

    def test_unknown_tenant_rejected(self):
        flows = (FlowSpec(flow=1, tenant="ghost", kappa=1.0, mu=2.0),)
        with pytest.raises(ValueError, match="unknown tenant"):
            FleetSpec(tenants=(tenant("t"),), flows=flows)

    def test_dict_roundtrip_is_canonical(self):
        fleet = synthesize_fleet(9)
        again = FleetSpec.from_dict(fleet.as_dict())
        assert again == fleet
        # The dict form feeds sweep-point identity hashing, so it must be
        # canonical-JSON clean (no NaN, JSON-able scalars only).
        assert canonical_json(fleet.as_dict()) == canonical_json(again.as_dict())


class TestSynthesize:
    def test_deterministic(self):
        assert synthesize_fleet(50) == synthesize_fleet(50)

    def test_flow_ids_are_dense_from_one(self):
        fleet = synthesize_fleet(10)
        assert [f.flow for f in fleet.flows] == list(range(1, 11))

    def test_every_flow_meets_its_tenants_floor(self):
        fleet = synthesize_fleet(100)
        for flow in fleet.flows:
            assert flow.kappa >= fleet.tenant(flow.tenant).min_kappa

    def test_tenants_are_cycled(self):
        fleet = synthesize_fleet(6)
        names = [f.tenant for f in fleet.flows]
        assert names == ["gold", "silver", "bronze"] * 2

    def test_empty_fleet(self):
        fleet = synthesize_fleet(0)
        assert fleet.flows == ()

    def test_starts_are_staggered_per_tenant_slot(self):
        fleet = synthesize_fleet(7)
        assert [f.start for f in fleet.flows] == [
            STAGGER * ((f.flow - 1) % 3) for f in fleet.flows
        ]
        assert {f.start for f in fleet.flows} == {0.0, STAGGER, 2 * STAGGER}

    def test_infeasible_tenant_floor_rejected(self):
        strict = Tenant(name="paranoid", min_kappa=9.0)
        with pytest.raises(ValueError, match="no synthesis profile"):
            synthesize_fleet(1, tenants=(strict,))
