"""ReMICSS under canonical faults: goodput/delay versus the fault-free baseline.

The paper's evaluation shapes every channel once per run; this bench
measures what the protocol loses -- and keeps -- when channels misbehave
mid-run.  Each canonical scenario from :mod:`repro.netsim.faults` (flap,
burst loss, delay spike, rate cut, partition/heal) is injected into the
middle of a Diverse-setup measurement window and compared against the
fault-free baseline on goodput and mean one-way delay.

Prints the comparison as JSON, then checks it (exit 1 on a failed
claim)::

    PYTHONPATH=src python benchmarks/bench_faults.py
"""

import json

from repro.protocol.config import ProtocolConfig
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import FAULT_SCENARIOS, diverse_setup
from repro.workloads.setups import testbed_fault_plan as fault_plan_for

SEED = 11
WARMUP = 5.0
DURATION = 30.0
#: Faults land inside the measurement window: [100 ms, 250 ms] on the
#: paper's axis = unit times [10, 25] with warmup 5 and duration 30.
START_MS, STOP_MS = 100.0, 250.0
#: Fault the 100 Mbps channel -- the one the headroom selector leans on
#: hardest, so degradation is visible.
FAULT_CHANNEL = 4


def measure(scenario=None):
    """One iperf-style run; ``scenario`` is a canonical name or None."""
    channels = diverse_setup()
    config = ProtocolConfig(kappa=2.0, mu=3.0, share_synthetic=True)
    offered = 0.9 * practical_max_rate(channels, config.mu, config.symbol_size)
    plan = (
        fault_plan_for(scenario, START_MS, STOP_MS, channel=FAULT_CHANNEL)
        if scenario
        else None
    )
    result = run_iperf(
        channels,
        config,
        offered_rate=offered,
        duration=DURATION,
        warmup=WARMUP,
        seed=SEED,
        fault_plan=plan,
    )
    return {
        "goodput_symbols_per_unit": result.achieved_rate,
        "goodput_mbps": result.achieved_mbps,
        "loss_percent": result.loss_percent,
        "mean_delay_ms": result.mean_delay_ms,
        "symbols_delivered": result.symbols_delivered,
        "fault_events_applied": (
            result.fault_summary["applied"] if result.fault_summary else 0
        ),
    }


def compare_scenarios():
    """Fault-free baseline vs. every canonical scenario, as one dict."""
    comparison = {"baseline": measure()}
    for scenario in FAULT_SCENARIOS:
        comparison[scenario] = measure(scenario)
    baseline = comparison["baseline"]["goodput_symbols_per_unit"]
    for row in comparison.values():
        row["goodput_vs_baseline"] = (
            row["goodput_symbols_per_unit"] / baseline if baseline else 0.0
        )
    return comparison


def check(comparison):
    """The bench's qualitative claims; raises AssertionError when violated."""
    baseline = comparison["baseline"]
    assert baseline["symbols_delivered"] > 0
    for scenario in FAULT_SCENARIOS:
        row = comparison[scenario]
        # Faults degrade but never kill the protocol: it keeps delivering.
        assert row["symbols_delivered"] > 0, scenario
        assert row["fault_events_applied"] >= 2, scenario
        assert (
            row["goodput_symbols_per_unit"] <= baseline["goodput_symbols_per_unit"] * 1.01
        ), scenario


def main():
    comparison = compare_scenarios()
    print(json.dumps(comparison, indent=2, sort_keys=True))
    check(comparison)


if __name__ == "__main__":
    main()
