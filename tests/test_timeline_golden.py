"""Fixed-seed goldens for the fault and attack timelines.

Two run shapes are pinned, each on the Diverse setup with full
observability:

* ``run_iperf`` under every canonical fault scenario with the resilience
  layer on -- the SHA-256 of the metrics and trace JSON-lines plus the
  injector's ``fault_summary``;
* ``run_iperf`` under every canonical attack scenario -- the same two
  digests plus the ``attack_summary``, and the reconciliation of the
  exported ``adv_*`` series and ``attack_applied`` traces with it.

The spec form (``to_json``) of every canonical scenario is pinned too, so
a refactor of the timeline machinery that keeps these literals keeps the
event order, the applied mutations, every metric and trace, and the JSON
format a plan file is written in.
"""

import hashlib
import json
from dataclasses import fields

import pytest

from repro.adversary.active import CANONICAL_ATTACKS, AttackStats, canonical_attack
from repro.netsim.faults import CANONICAL_SCENARIOS, canonical_plan
from repro.obs import Observability, metrics_to_jsonl, trace_to_jsonl
from repro.protocol.config import ProtocolConfig
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import diverse_setup

SEED = 7
WARMUP = 2.0
DURATION = 8.0
START, STOP = 3.0, 8.0
RISKS = [0.3, 0.1, 0.2, 0.05, 0.15]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(synthetic, **kwargs):
    channels = diverse_setup(risks=RISKS)
    config = ProtocolConfig(kappa=2.0, mu=3.0, share_synthetic=synthetic)
    offered = 0.9 * practical_max_rate(channels, config.mu, config.symbol_size)
    obs = Observability.create()
    result = run_iperf(
        channels,
        config,
        offered_rate=offered,
        duration=DURATION,
        warmup=WARMUP,
        seed=SEED,
        obs=obs,
        **kwargs,
    )
    samples = obs.snapshot()
    digests = {
        "metrics": sha256(metrics_to_jsonl(samples)),
        "trace": sha256(trace_to_jsonl(obs.tracer.events)),
    }
    return result, samples, obs.tracer.events, digests


def run_faults(name):
    overrides = {} if name == "partition_heal" else {"channel": 3}
    plan = canonical_plan(name, START, STOP, **overrides)
    return run(True, fault_plan=plan, resilience=True)


def run_attack(name):
    return run(False, attack_plan=canonical_attack(name, START, STOP))


ZERO_STATS = {field.name: 0 for field in fields(AttackStats)}

#: Per fault scenario: the injector summary and the obs digests.
FAULT_GOLDENS = {
    "burst": {
        "summary": {
            "applied": 2, "by_action": {"burst_start": 1, "burst_stop": 1},
            "first_at": 3.0, "last_at": 8.0,
        },
        "digests": {
            "metrics": "8568fca3dc9d5b9f7b9881991fcd37eef07082bb559161134b2f8956af93f5f2",
            "trace": "c5cf1c2cf0bce8992bc9875d317247a0c9f5d0023364a40107f8684d98d0e0d3",
        },
    },
    "delay_spike": {
        "summary": {
            "applied": 2, "by_action": {"set_delay": 2},
            "first_at": 3.0, "last_at": 8.0,
        },
        "digests": {
            "metrics": "1be83fdc60d81af934601e50d21d7ed2b1c168059b1eb0f51a58915758ba5865",
            "trace": "7b56e6400204371b0f96d81c7e6247237200d58892de2f1f3084816fee980a2e",
        },
    },
    "flap": {
        "summary": {
            "applied": 4, "by_action": {"link_down": 2, "link_up": 2},
            "first_at": 3.0, "last_at": 8.0,
        },
        "digests": {
            "metrics": "1cd212f59eb1bd1f9637d4ca285414d33d67b3e867ee1ab0503b417946913d65",
            "trace": "cae39161ac41e3765543b0b377fe224192dbf7d86ca981d369eae0cfe74fe89f",
        },
    },
    "partition_heal": {
        "summary": {
            "applied": 2, "by_action": {"partition": 1, "heal": 1},
            "first_at": 3.0, "last_at": 8.0,
        },
        "digests": {
            "metrics": "6bc6b022034bdf1f7b800fb09087d61478c7fe89643c04ef15226703fc4d8f85",
            "trace": "efdd249e978ea2fc56bc62e1a6bda87eff818dc349fca14b9f1f82677c87d9fd",
        },
    },
    "rate_cut": {
        "summary": {
            "applied": 2, "by_action": {"set_rate": 2},
            "first_at": 3.0, "last_at": 8.0,
        },
        "digests": {
            "metrics": "874c8ff9d9b8742a31544cab74b04591a05f2c0ccffc533bbbb1f5b3656ec2c5",
            "trace": "4535fafea538a126cbcb1b2cf318d1bfc7c9d79c7eabdcea1d14ed686c3f608f",
        },
    },
}

#: Per attack scenario: the injector summary (nonzero stats only) and the
#: obs digests.
ATTACK_GOLDENS = {
    "corruption_storm": {
        "summary": {
            "applied": 2, "by_action": {"corrupt_start": 1, "corrupt_stop": 1},
            "first_at": 3.0, "last_at": 8.0,
            "stats": {**ZERO_STATS, "shares_corrupted": 523, "packets_captured": 1992},
        },
        "digests": {
            "metrics": "f58e193590e06fe5981b28d1b1165464405f7b2db6395977a1ca7228ca76841b",
            "trace": "2bfe1be3e93fc3b2469279a7ed1d64b54d7f869b2faebc218b8a8b30c4c0578c",
        },
    },
    "forged_injection": {
        "summary": {
            "applied": 2, "by_action": {"forge_start": 1, "forge_stop": 1},
            "first_at": 3.0, "last_at": 8.0,
            "stats": {**ZERO_STATS, "shares_forged": 95, "packets_captured": 1992},
        },
        "digests": {
            "metrics": "154babdf6559c35740f898b43d4db9830848786f32c373bc4a779642ee30eaf5",
            "trace": "5d712b3c96d9f9c648e70d53facd2b4a7432df7b6aeed1067991b6f9699ffd06",
        },
    },
    "replay_flood": {
        "summary": {
            "applied": 2, "by_action": {"replay_start": 1, "replay_stop": 1},
            "first_at": 3.0, "last_at": 8.0,
            "stats": {**ZERO_STATS, "packets_replayed": 95, "packets_captured": 1992},
        },
        "digests": {
            "metrics": "fe98f72c3c0241d78be458f662ece014896d23dbef1536c5265584bbb834dd0c",
            "trace": "a7f2b512a78a28c9dfba1b6b155c243298caebff564e3e1682d30a219181b02c",
        },
    },
    "targeted_corruption": {
        "summary": {
            "applied": 2, "by_action": {"target_start": 1, "target_stop": 1},
            "first_at": 3.0, "last_at": 8.0,
            "stats": {
                **ZERO_STATS, "packets_captured": 1992, "targeted_symbols": 113,
                "targeted_corruptions": 33,
            },
        },
        "digests": {
            "metrics": "5b6230a4f2bb095c45f815a0e7f3e29ef1c98ca7c53db891cf2462fd3e8ed048",
            "trace": "0789b28e00f8cc6b71116a647f44db65ea14bcc188a5608bf9c263f52a0013ba",
        },
    },
    "targeted_partition": {
        "summary": {
            "applied": 2, "by_action": {"adaptive_start": 1, "adaptive_stop": 1},
            "first_at": 3.0, "last_at": 8.0,
            "stats": {
                **ZERO_STATS, "packets_captured": 1693, "jams": 2, "unjams": 2,
                "adaptive_jams": 2,
            },
        },
        "digests": {
            "metrics": "0839dc239cfaa1fa4de68339c00152657c25a1333e0e3c8ef20885895ab37433",
            "trace": "7f3684c26b30fc18c859e82c0f0522c692149f9f1f8fc500d980d05c3574ec97",
        },
    },
}

#: ``to_spec()`` of every canonical fault scenario over [START, STOP].
SCENARIO_SPECS = {
    "burst": [
        {
            "time": 3.0, "action": "burst_start", "channel": 0,
            "p_bad": 0.05, "p_good": 0.25, "loss_good": 0.0, "loss_bad": 0.9,
        },
        {"time": 8.0, "action": "burst_stop", "channel": 0},
    ],
    "delay_spike": [
        {"time": 3.0, "action": "set_delay", "channel": 0, "delay": 5.0},
        {"time": 8.0, "action": "set_delay", "channel": 0, "delay": 0.0},
    ],
    "flap": [
        {"time": 3.0, "action": "link_down", "channel": 0},
        {"time": 5.0, "action": "link_up", "channel": 0},
        {"time": 7.0, "action": "link_down", "channel": 0},
        {"time": 8.0, "action": "link_up", "channel": 0},
    ],
    "partition_heal": [
        {"time": 3.0, "action": "partition"},
        {"time": 8.0, "action": "heal"},
    ],
    "rate_cut": [
        {"time": 3.0, "action": "set_rate", "channel": 0, "scale": 0.1},
        {"time": 8.0, "action": "set_rate", "channel": 0, "scale": 10.0},
    ],
}

#: ``to_spec()`` of every canonical attack scenario over [START, STOP].
ATTACK_SPECS = {
    "corruption_storm": [
        {"time": 3.0, "action": "corrupt_start", "direction": "fwd", "rate": 0.5, "mode": "flip"},
        {"time": 8.0, "action": "corrupt_stop", "direction": "fwd"},
    ],
    "forged_injection": [
        {
            "time": 3.0, "action": "forge_start", "direction": "fwd",
            "rate": 4.0, "mode": "tracking",
        },
        {"time": 8.0, "action": "forge_stop", "direction": "fwd"},
    ],
    "replay_flood": [
        {"time": 3.0, "action": "replay_start", "rate": 4.0, "tamper": True},
        {"time": 8.0, "action": "replay_stop"},
    ],
    "targeted_corruption": [
        {"time": 3.0, "action": "target_start", "direction": "fwd", "period": 3, "width": 2},
        {"time": 8.0, "action": "target_stop"},
    ],
    "targeted_partition": [
        {
            "time": 3.0, "action": "adaptive_start",
            "budget": 8, "period": 4.0, "width": 2, "jam_for": 2.0,
        },
        {"time": 8.0, "action": "adaptive_stop"},
    ],
}


@pytest.mark.parametrize("name", sorted(CANONICAL_SCENARIOS))
def test_fault_run_golden(name):
    result, _samples, _events, digests = run_faults(name)
    expected = FAULT_GOLDENS[name]
    assert result.fault_summary == expected["summary"]
    assert digests == expected["digests"]


@pytest.mark.parametrize("name", sorted(CANONICAL_ATTACKS))
def test_attack_run_golden(name):
    result, _samples, _events, digests = run_attack(name)
    expected = ATTACK_GOLDENS[name]
    assert result.attack_summary == expected["summary"]
    assert digests == expected["digests"]


@pytest.mark.parametrize("name", sorted(CANONICAL_ATTACKS))
def test_attack_metrics_and_traces_reconcile(name):
    result, samples, events, _digests = run_attack(name)
    summary = result.attack_summary
    values = {
        (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
        for s in samples
        if "value" in s
    }
    for field in fields(AttackStats):
        assert values[(f"adv_{field.name}_total", ())] == summary["stats"][field.name]
    applied = {
        dict(labels)["action"]: value
        for (metric, labels), value in values.items()
        if metric == "adv_events_applied_total"
    }
    assert applied == summary["by_action"]
    traces = [event for event in events if event.name == "attack_applied"]
    assert len(traces) == summary["applied"]
    assert values[("adv_plan_events", ())] == 2


@pytest.mark.parametrize("name", sorted(CANONICAL_SCENARIOS))
def test_canonical_scenario_spec(name):
    plan = canonical_plan(name, START, STOP)
    assert plan.to_json() == json.dumps(SCENARIO_SPECS[name], indent=2)


@pytest.mark.parametrize("name", sorted(CANONICAL_ATTACKS))
def test_canonical_attack_spec(name):
    plan = canonical_attack(name, START, STOP)
    assert plan.to_json() == json.dumps(ATTACK_SPECS[name], indent=2)
