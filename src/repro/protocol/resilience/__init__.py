"""Closed-loop channel resilience for the ReMICSS protocol.

The paper's protocol is deliberately best-effort: shares lost in transit
are gone, and the sender keeps spraying shares at a channel until a
periodic review notices.  This package closes the loop without ever
trading privacy for availability:

* :mod:`~repro.protocol.resilience.health` -- per-channel failure
  detector (EWMA loss + phi-accrual-style liveness suspicion), fed by
  sim-time send outcomes and receiver feedback.
* :mod:`~repro.protocol.resilience.quarantine` -- the
  ``HEALTHY -> SUSPECT -> QUARANTINED -> PROBING -> HEALTHY`` state
  machine with exponential-backoff probes gating reinstatement.
* :mod:`~repro.protocol.resilience.failover` -- schedule failover: the
  LP re-solved over the surviving channels under the original
  requirements, degrading rate but never the privacy floor kappa; an
  explicit DEGRADED mode pauses admission when nothing feasible remains.
* :mod:`~repro.protocol.resilience.repair` -- the sender side of the
  bounded NACK/retransmit repair path.
* :mod:`~repro.protocol.resilience.manager` -- the conductor wiring all
  of the above into a running node pair.

The layer has one configuration: its tunables are the constants in
:mod:`~repro.protocol.resilience.config`, and failover and repair are
always on.  Everything is deterministic: timers run on the simulation
engine, the only randomness (repair jitter) comes from a named seeded
stream, and the package passes ``repro lint`` with an empty baseline.
See docs/RESILIENCE.md.
"""

from repro.protocol.resilience.failover import FailoverController, FailoverRecord
from repro.protocol.resilience.health import ChannelHealth, HealthMonitor, HealthSample
from repro.protocol.resilience.manager import ResilienceManager, ResilienceStats
from repro.protocol.resilience.quarantine import ChannelGuard, ChannelState, Transition
from repro.protocol.resilience.repair import RepairBuffer, RepairJob

__all__ = [
    "ChannelGuard",
    "ChannelHealth",
    "ChannelState",
    "FailoverController",
    "FailoverRecord",
    "HealthMonitor",
    "HealthSample",
    "RepairBuffer",
    "RepairJob",
    "ResilienceManager",
    "ResilienceStats",
    "Transition",
]
