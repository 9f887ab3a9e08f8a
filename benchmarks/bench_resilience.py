"""Resilience layer on/off under faults: what quarantine+failover+repair buys.

Runs the same LP-planned workload through two canonical fault scenarios
-- a mid-run outage of the heaviest channel (``partition_heal``) and a
bursty-loss episode (``burst``) -- once best-effort and once with the
resilience layer (see docs/RESILIENCE.md) enabled, and compares delivery
ratios.  The schedule comes from ``plan_max_rate`` under explicit
:class:`~repro.core.planner.Requirements`, so failover re-solves the LP
over the surviving channels and the privacy floor is enforced end to end.

The comparison also re-runs the resilient outage case and asserts the
JSON summary is byte-identical -- the layer's timers, jitter and repair
scheduling are all engine-driven and seeded, so same seed means same run.

Prints the comparison as JSON, then checks it (exit 1 on a failed claim;
``--quick`` shrinks the window for CI smoke)::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

import argparse
import json

from repro.core.planner import Requirements, plan_max_rate
from repro.protocol.config import ProtocolConfig
from repro.workloads.iperf import run_iperf
from repro.workloads.setups import diverse_setup
from repro.workloads.setups import testbed_fault_plan as fault_plan_for

SEED = 11
WARMUP = 5.0
DURATION = 30.0
#: Faults land inside the measurement window: [100 ms, 250 ms] on the
#: paper's axis = unit times [10, 25] with warmup 5 and duration 30.
START_MS, STOP_MS = 100.0, 250.0
#: Fault the 100 Mbps channel -- the one carrying the most shares, so the
#: outage is worth failing over from.
FAULT_CHANNEL = 4
#: Deployment bounds for the LP plan (and the failover re-solve).  At
#: this risk bound the Diverse setup plans kappa = mu = 2, so the privacy
#: floor the failover must hold is k >= 2.
REQUIREMENTS = Requirements(max_risk=0.02)
SCENARIOS = ("partition_heal", "burst")


def measure(scenario, resilient, quick=False):
    """One iperf-style run; returns a JSON-safe row."""
    duration = DURATION / 2 if quick else DURATION
    stop_ms = STOP_MS / 2 if quick else STOP_MS
    channels = diverse_setup()
    plan = plan_max_rate(channels, REQUIREMENTS)
    config = ProtocolConfig(share_synthetic=True)
    offered = 0.9 * plan.rate
    result = run_iperf(
        channels,
        config,
        offered_rate=offered,
        duration=duration,
        warmup=WARMUP,
        seed=SEED,
        schedule=plan.schedule,
        fault_plan=fault_plan_for(scenario, START_MS, stop_ms, channel=FAULT_CHANNEL),
        resilience=resilient,
        requirements=REQUIREMENTS if resilient else None,
    )
    row = {
        "scenario": scenario,
        "resilient": resilient,
        "delivery_ratio": result.achieved_rate / offered,
        "goodput_symbols_per_unit": result.achieved_rate,
        "loss_percent": result.loss_percent,
        "mean_delay_ms": result.mean_delay_ms,
        "symbols_delivered": result.symbols_delivered,
    }
    if result.resilience_summary is not None:
        summary = result.resilience_summary
        row["resilience"] = {
            key: summary[key]
            for key in (
                "quarantines", "reinstatements", "failovers", "restores",
                "nacks_received", "repair_shares_sent",
            )
        }
        row["failover_modes"] = summary["failover_modes"]
    return row


def compare_scenarios(quick=False):
    """Best-effort vs. resilient rows per scenario, plus a determinism check."""
    comparison = {}
    for scenario in SCENARIOS:
        off = measure(scenario, resilient=False, quick=quick)
        on = measure(scenario, resilient=True, quick=quick)
        comparison[scenario] = {
            "best_effort": off,
            "resilient": on,
            "delivery_ratio_gain": on["delivery_ratio"] - off["delivery_ratio"],
        }
    # Same seed, same bytes: re-run one resilient case and compare the
    # serialized rows (summaries include every transition and counter).
    replay = measure(SCENARIOS[0], resilient=True, quick=quick)
    comparison["deterministic"] = json.dumps(
        replay, sort_keys=True
    ) == json.dumps(comparison[SCENARIOS[0]]["resilient"], sort_keys=True)
    return comparison


def check(comparison):
    """The bench's qualitative claims; raises AssertionError when violated."""
    assert comparison["deterministic"], "same-seed replay diverged"
    outage = comparison["partition_heal"]
    # The headline claim: with a channel outage mid-run, quarantining the
    # dead channel and failing the schedule over to the survivors beats
    # stalling on readiness until the heal.
    assert (
        outage["resilient"]["delivery_ratio"]
        > outage["best_effort"]["delivery_ratio"]
    ), outage
    assert outage["resilient"]["resilience"]["quarantines"] >= 1, outage
    assert outage["resilient"]["resilience"]["failovers"] >= 1, outage
    for scenario in SCENARIOS:
        on = comparison[scenario]["resilient"]
        assert on["symbols_delivered"] > 0, scenario
        # Failover never degrades below the privacy floor (enforced in
        # repro.protocol.resilience.failover; summarized per run here).
        assert "degraded" not in on["failover_modes"], scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="halved window for CI smoke"
    )
    args = parser.parse_args()
    comparison = compare_scenarios(quick=args.quick)
    print(json.dumps(comparison, indent=2, sort_keys=True))
    check(comparison)


if __name__ == "__main__":
    main()
