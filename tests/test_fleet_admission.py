"""Per-tenant admission: κ floors, quotas, deterministic decisions."""

import pytest

from repro.fleet import AdmissionController, FlowSpec, Tenant

GOLD = Tenant(name="gold", min_kappa=2.0, max_flows=2)
OPEN = Tenant(name="open", min_kappa=1.0)


def flow(flow_id, tenant="open", kappa=1.0, mu=2.0):
    return FlowSpec(flow=flow_id, tenant=tenant, kappa=kappa, mu=mu)


class TestDecisions:
    def test_admits_at_or_above_floor(self):
        controller = AdmissionController([GOLD])
        assert controller.admit(flow(1, "gold", kappa=2.0, mu=3.0)) is None
        assert controller.stats.admitted == 1

    def test_rejects_below_kappa_floor(self):
        controller = AdmissionController([GOLD])
        assert controller.admit(flow(1, "gold", kappa=1.5, mu=3.0)) == "kappa_floor"
        assert controller.stats.rejected["kappa_floor"] == 1
        assert controller.stats.admitted == 0

    def test_rejects_unknown_tenant(self):
        controller = AdmissionController([GOLD])
        assert controller.admit(flow(1, "open")) == "unknown_tenant"

    def test_quota_enforced_in_admission_order(self):
        controller = AdmissionController([GOLD])
        assert controller.admit(flow(1, "gold", kappa=2.0, mu=3.0)) is None
        assert controller.admit(flow(2, "gold", kappa=2.0, mu=3.0)) is None
        assert controller.admit(flow(3, "gold", kappa=2.0, mu=3.0)) == "quota"
        assert controller._counts["gold"] == 2

    def test_rejected_flows_do_not_consume_quota(self):
        controller = AdmissionController([GOLD])
        controller.admit(flow(1, "gold", kappa=1.0, mu=3.0))  # below floor
        assert controller._counts["gold"] == 0

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant"):
            AdmissionController([OPEN, OPEN])


class TestFilter:
    def test_decides_in_flow_id_order_regardless_of_input_order(self):
        # Quota 2: with id-ordered decisions, flows 1 and 2 win no matter
        # how the input is shuffled.
        flows = [flow(3, "gold", kappa=2.0, mu=3.0),
                 flow(1, "gold", kappa=2.0, mu=3.0),
                 flow(2, "gold", kappa=2.0, mu=3.0)]
        for ordering in (flows, flows[::-1]):
            controller = AdmissionController([GOLD])
            admitted, rejected = controller.filter(ordering)
            assert [f.flow for f in admitted] == [1, 2]
            assert rejected == {3: "quota"}

    def test_mixed_reasons(self):
        controller = AdmissionController([GOLD, OPEN])
        admitted, rejected = controller.filter(
            [
                flow(1, "open"),
                flow(2, "gold", kappa=1.0, mu=3.0),
                flow(3, "nobody"),
            ]
        )
        assert [f.flow for f in admitted] == [1]
        assert rejected == {2: "kappa_floor", 3: "unknown_tenant"}
        assert controller.stats.as_dict() == {
            "admitted": 1,
            "rejected": {"unknown_tenant": 1, "kappa_floor": 1, "quota": 0},
        }
