"""Workloads and the paper's experimental setups.

* :mod:`repro.workloads.setups` -- the four channel configurations of
  Sec. VI (Identical, Diverse, Lossy, Delayed) plus the unit conventions
  that map the paper's Mbps/ms axes onto simulator units;
* :mod:`repro.workloads.iperf` -- an iperf-style unidirectional UDP
  benchmark: offered datagram load at a fixed rate, measuring achieved
  rate and datagram loss over a warmed-up window;
* :mod:`repro.workloads.echo` -- the paper's custom echo tool: timestamped
  datagrams echoed back by the far node, reporting mean RTT/2;
* :mod:`repro.workloads.traces` -- synthetic web, streaming and messaging
  traces replayed through the DIBS tunnel (``run_trace``);
* :mod:`repro.workloads.fleet` -- the fleet-scale multi-tenant workload
  (many flows, DRR-fair multiplexing, sharded execution; docs/FLEET.md).
"""

from repro.workloads.echo import EchoResult, run_echo
from repro.workloads.fleet import run_fleet
from repro.workloads.iperf import IperfResult, run_iperf
from repro.workloads.setups import (
    MS_PER_UNIT,
    SYMBOL_SIZE,
    delayed_setup,
    diverse_setup,
    identical_setup,
    lossy_setup,
    mbps_to_rate,
    ms_to_delay,
    rate_to_mbps,
)

__all__ = [
    "SYMBOL_SIZE",
    "MS_PER_UNIT",
    "mbps_to_rate",
    "rate_to_mbps",
    "ms_to_delay",
    "identical_setup",
    "diverse_setup",
    "lossy_setup",
    "delayed_setup",
    "run_iperf",
    "IperfResult",
    "run_echo",
    "EchoResult",
    "run_fleet",
]
