"""Satellite: the resilience layer is bit-reproducible, serial or parallel.

Every resilience timer runs on the simulation engine and every random
draw comes from a named seeded stream, so a faulted resilient run must
serialize byte-identically across repeats -- including its observability
snapshot -- and a sweep over such runs must not care how many worker
processes computed it.
"""

import hashlib
import json

import pytest

from repro.core.planner import Requirements
from repro.obs import Observability
from repro.protocol.config import ProtocolConfig
from repro.sweep import SweepRunner, SweepSpec
from repro.workloads.iperf import run_iperf
from repro.workloads.setups import diverse_setup
from repro.workloads.setups import testbed_fault_plan as fault_plan_for

REQUIREMENTS = Requirements(max_risk=0.02)


def resilient_run(seed, scenario="partition_heal", obs=None):
    return run_iperf(
        diverse_setup(),
        ProtocolConfig(kappa=2.0, mu=2.0, share_synthetic=True),
        offered_rate=100.0,
        duration=15.0,
        warmup=3.0,
        seed=seed,
        fault_plan=fault_plan_for(scenario, 60.0, 120.0, channel=4),
        obs=obs,
        resilience=True,
        requirements=REQUIREMENTS,
    )


def serialize(result, obs):
    return json.dumps(
        {
            "achieved": result.achieved_rate,
            "sender": result.sender_stats,
            "receiver": result.receiver_stats,
            "resilience": result.resilience_summary,
            "metrics": obs.snapshot() if obs is not None else None,
        },
        sort_keys=True,
    )


def sweep_point(params, seed):
    """Module-level (picklable) sweep point: one short resilient run."""
    result = resilient_run(seed, scenario=params["scenario"])
    row = dict(result.resilience_summary)
    row["scenario"] = params["scenario"]
    row["achieved_rate"] = result.achieved_rate
    return row


class TestByteIdentical:
    def test_same_seed_same_bytes_with_obs(self):
        blobs = []
        for _ in range(2):
            obs = Observability.create(tracing=False)
            blobs.append(serialize(resilient_run(seed=11, obs=obs), obs))
        assert blobs[0] == blobs[1]
        # Sanity: the run actually exercised the layer.
        assert '"quarantines": 1' in blobs[0]

    def test_different_seeds_diverge(self):
        first = serialize(resilient_run(seed=11), None)
        second = serialize(resilient_run(seed=12), None)
        assert first != second


class TestPinned:
    """SHA-256 of the serialized run with obs, pinned: the LP-replanned
    failover (partition_heal) and the repair path (burst) must replay the
    same bytes across refactors of the layer."""

    @pytest.mark.parametrize(
        "scenario,modes,digest",
        [
            ("partition_heal", ["replanned", "restored"],
             "cb02f8139dce41f67cd388cae8d95c0506229c6a80020821d64d3aaa5cf37e8a"),
            ("burst", [],
             "9810462e8b5676589987c086330582baaeef81c4173d791fb0356759ce58030b"),
        ],
    )
    def test_serialization_digest(self, scenario, modes, digest):
        obs = Observability.create(tracing=False)
        result = resilient_run(seed=11, scenario=scenario, obs=obs)
        assert result.resilience_summary["failover_modes"] == modes
        blob = serialize(result, obs)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


class TestSweepParallelism:
    SPEC = SweepSpec(
        "resilience-determinism",
        grid=[{"scenario": "partition_heal"}, {"scenario": "burst"}],
    )

    def test_serial_and_parallel_sweeps_agree(self):
        serial = SweepRunner(jobs=1).run(self.SPEC, sweep_point)
        parallel = SweepRunner(jobs=2).run(self.SPEC, sweep_point)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert all(r.ok for r in parallel)
        by_scenario = {r.value["scenario"]: r.value for r in serial}
        assert by_scenario["partition_heal"]["quarantines"] >= 1
        assert by_scenario["burst"]["nacks_received"] >= 1
