"""Fleet execution: shard parity, merging, admission wiring."""

import pytest

import repro.fleet.runner as fleet_runner
from repro.fleet import FleetRunner, FleetSpec, FlowSpec, Tenant, synthesize_fleet
from repro.fleet.runner import CELL_SHAPE


def small_fleet(flows=8, symbols=3):
    return synthesize_fleet(flows, symbols=symbols)


class TestShardParity:
    def test_shards_1_and_4_are_byte_identical(self):
        """The satellite property: per-flow delivery traces (digests over
        every reconstructed symbol) are byte-identical across shardings,
        with real share material on the wire."""
        fleet = small_fleet(flows=8, symbols=3)
        serial = FleetRunner(shards=1, flows_per_cell=2).run(fleet, synthetic=False)
        sharded = FleetRunner(shards=4, flows_per_cell=2).run(fleet, synthetic=False)
        assert serial.per_flow == sharded.per_flow
        assert serial.fleet_digest == sharded.fleet_digest
        assert serial.tenants == sharded.tenants
        assert serial.delivered_total == sharded.delivered_total

    def test_parity_holds_synthetic(self):
        fleet = small_fleet(flows=12, symbols=2)
        serial = FleetRunner(shards=1, flows_per_cell=3).run(fleet)
        sharded = FleetRunner(shards=2, flows_per_cell=3).run(fleet)
        assert serial.fleet_digest == sharded.fleet_digest

    def test_cell_partitioning_changes_results_but_not_validity(self):
        """Different flows_per_cell = different contention groups = a
        different (but still deterministic) fleet; both deliver fully."""
        fleet = small_fleet(flows=8, symbols=2)
        a = FleetRunner(shards=1, flows_per_cell=2).run(fleet)
        b = FleetRunner(shards=1, flows_per_cell=8).run(fleet)
        assert a.delivered_total == b.delivered_total == 16
        assert a.cells == 4 and b.cells == 1


class TestCellShape:
    def test_shape_keeps_the_cell_seeds(self):
        # Every value enters each cell's derived seed: changing one re-keys
        # every fleet cell and moves every fleet digest.
        assert CELL_SHAPE == {
            "loss": 0.0, "delay": 0.05, "rate": 64.0, "quantum": 1.0, "queue_limit": 64,
        }

    def test_every_cell_runs_with_the_shape(self, monkeypatch):
        seen = []
        run_cell = fleet_runner.run_cell

        def recording_cell(params, seed):
            seen.append(params)
            return run_cell(params, seed)

        monkeypatch.setattr(fleet_runner, "run_cell", recording_cell)
        report = FleetRunner(shards=1, flows_per_cell=2).run(small_fleet(flows=6, symbols=2))
        assert report.cells == len(seen) == 3
        for params in seen:
            assert {key: params[key] for key in CELL_SHAPE} == CELL_SHAPE


class TestReport:
    def test_full_delivery_on_lossless_channels(self):
        fleet = small_fleet(flows=6, symbols=4)
        report = FleetRunner(shards=1, flows_per_cell=3).run(fleet)
        assert report.admitted == 6
        assert report.delivered_total == 24
        assert report.mux_drops_total == 0
        assert report.kappa_floor_violations == 0
        assert set(report.per_flow) == set(range(1, 7))
        for record in report.per_flow.values():
            assert record["delivered"] == 4
            assert len(record["digest"]) == 64

    def test_rejected_flows_are_excluded_and_counted(self):
        tenants = (Tenant(name="gold", min_kappa=2.0, max_flows=1),)
        flows = (
            FlowSpec(flow=1, tenant="gold", kappa=2.0, mu=3.0, symbols=2),
            FlowSpec(flow=2, tenant="gold", kappa=1.0, mu=3.0, symbols=2),  # floor
            FlowSpec(flow=3, tenant="gold", kappa=2.0, mu=3.0, symbols=2),  # quota
        )
        fleet = FleetSpec(tenants=tenants, flows=flows)
        report = FleetRunner(shards=1).run(fleet)
        assert report.admitted == 1
        assert report.rejected_flows == {2: "kappa_floor", 3: "quota"}
        assert set(report.per_flow) == {1}
        assert report.tenants["gold"]["flows"] == 1
        assert report.tenants["gold"]["compliant"]

    def test_report_counts_admission_and_delivery(self):
        # The report is the fleet's one record of what it admitted,
        # rejected and delivered.
        tenants = (Tenant(name="gold", min_kappa=2.0),)
        flows = (
            FlowSpec(flow=1, tenant="gold", kappa=2.0, mu=3.0, symbols=2),
            FlowSpec(flow=2, tenant="gold", kappa=1.0, mu=3.0, symbols=2),
        )
        report = FleetRunner(shards=1).run(FleetSpec(tenants=tenants, flows=flows))
        assert report.flows_total == 2
        assert report.admitted == 1
        assert sum(report.rejected.values()) == 1
        assert report.rejected_flows == {2: "kappa_floor"}
        assert report.cells == 1
        assert report.delivered_total == 2
        assert report.delivered_total == sum(
            record["delivered"] for record in report.per_flow.values()
        )
        assert report.kappa_floor_violations == 0

    def test_empty_fleet(self):
        report = FleetRunner(shards=1).run(FleetSpec())
        assert report.cells == 0
        assert report.delivered_total == 0
        assert report.per_flow == {}

    def test_as_dict_is_json_shaped(self):
        import json

        fleet = small_fleet(flows=3, symbols=1)
        report = FleetRunner(shards=1).run(fleet)
        data = json.loads(json.dumps(report.as_dict(), sort_keys=True))
        assert data["per_flow"]["1"]["delivered"] == 1
        assert data["rejected_flows"] == {}

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FleetRunner(shards=0)
        with pytest.raises(ValueError):
            FleetRunner(flows_per_cell=0)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"channels": 3}, "flow 4 .* needs 4 channels"),
            ({"channels": 0}, "channels >= 1"),
            ({"symbol_size": 0}, "symbol_size >= 1"),
        ],
    )
    def test_cells_that_cannot_carry_the_fleet_are_rejected(self, kwargs, match):
        # Flow 4 takes µ = 4: on three channels it never finds four
        # writable ports and blocks its cell's shared FIFO sender.
        with pytest.raises(ValueError, match=match):
            FleetRunner(shards=1).run(small_fleet(flows=8), **kwargs)


class TestAuthenticatedFleet:
    def test_auth_requires_real_payloads(self):
        with pytest.raises(ValueError):
            FleetRunner(shards=1).run(small_fleet(flows=2), auth=True)

    def test_auth_delivers_fully_and_keeps_shard_parity(self):
        # Arming auth keeps the two fleet invariants: lossless channels
        # still deliver everything (tags verify end to end, including
        # across per-flow key derivation), and the report stays
        # byte-identical under sharding (cell root keys derive from cell
        # seeds, never from worker order).
        fleet = small_fleet(flows=6, symbols=2)
        serial = FleetRunner(shards=1, flows_per_cell=2).run(
            fleet, synthetic=False, auth=True
        )
        sharded = FleetRunner(shards=3, flows_per_cell=2).run(
            fleet, synthetic=False, auth=True
        )
        assert serial.delivered_total == 12
        assert serial.fleet_digest == sharded.fleet_digest
        assert serial.per_flow == sharded.per_flow

    def test_auth_leaves_unauth_fleets_untouched(self):
        # The `auth` knob enters cell parameters only when armed, so an
        # unauthenticated run is byte-identical to one from a build that
        # never heard of auth (same seeds, same digests).
        fleet = small_fleet(flows=4, symbols=2)
        plain = FleetRunner(shards=1, flows_per_cell=2).run(fleet, synthetic=False)
        again = FleetRunner(shards=1, flows_per_cell=2).run(
            fleet, synthetic=False, auth=False
        )
        assert plain.fleet_digest == again.fleet_digest
