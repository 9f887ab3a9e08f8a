"""Discrete-event network simulator.

This package stands in for the paper's hardware testbed (two workstations
joined by five dedicated, shaped 10 GbE links).  It provides:

* :mod:`repro.netsim.engine` -- a deterministic discrete-event engine with
  a monotonic simulated clock;
* :mod:`repro.netsim.link` -- unidirectional links with serialisation at a
  configured byte rate (the htb analogue), Bernoulli share loss and fixed
  propagation delay (the netem analogue), and a bounded tail-drop queue;
* :mod:`repro.netsim.host` -- an optional CPU model that serialises
  per-share processing, reproducing the end-system bottleneck behind the
  paper's Figures 6-7;
* :mod:`repro.netsim.ports` -- the channel endpoints the protocol talks
  to, exposing an epoll-like *writable* predicate;
* :mod:`repro.netsim.readiness` -- the write-readiness selector backing
  ReMICSS's dynamic share schedule;
* :mod:`repro.netsim.rng` -- named, reproducible random streams, and
  block-drawn random bytes for single-owner byte streams;
* :mod:`repro.netsim.trace` -- counters and summary statistics;
* :mod:`repro.netsim.faults` -- declarative, deterministic fault injection
  (outages, flaps, burst loss, parameter overrides, partitions) driven by
  the event engine.

Everything is deterministic given a root seed: event ties break on a
monotonic sequence number and all randomness flows through named
``numpy.random.Generator`` streams.
"""

from repro.netsim.engine import Engine, Event
from repro.netsim.faults import (
    CANONICAL_SCENARIOS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    GilbertElliott,
    canonical_plan,
)
from repro.netsim.host import CpuModel
from repro.netsim.link import DuplexChannel, Link, LinkStats, LossModel
from repro.netsim.packet import Datagram
from repro.netsim.ports import ChannelPort
from repro.netsim.readiness import WriteSelector
from repro.netsim.rng import RngRegistry
from repro.netsim.trace import DelayStats, RateMeter

__all__ = [
    "Engine",
    "Event",
    "Datagram",
    "Link",
    "LinkStats",
    "LossModel",
    "DuplexChannel",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "GilbertElliott",
    "CANONICAL_SCENARIOS",
    "canonical_plan",
    "CpuModel",
    "ChannelPort",
    "WriteSelector",
    "RngRegistry",
    "RateMeter",
    "DelayStats",
]
