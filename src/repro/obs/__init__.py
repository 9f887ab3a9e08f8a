"""Simulation-wide observability: metrics, structured tracing, exporters.

The evaluation of the paper is entirely about *measured* rate, loss and
delay; this package makes those measurements first-class across the whole
simulator instead of scattered ad-hoc counters:

* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms.  Everything is keyed to simulated
  time (no wall clock anywhere), so a seeded run produces a byte-identical
  metrics dump every time.
* :mod:`repro.obs.tracing` -- a structured event :class:`Tracer` of
  sim-time point events (``tracer.event("share_tx", seq=7)``) backed by a
  bounded ring buffer.
* :mod:`repro.obs.export` -- exporters to JSON-lines and Prometheus text
  format.
* :mod:`repro.obs.instrument` -- :class:`Observability`, the bundle that
  wires a registry and tracer into a :class:`~repro.protocol.remicss.PointToPointNetwork`
  and its protocol nodes.

Observability is off when a run is given ``obs=None``, and tracing is
off in a bundle built with ``Observability.create(tracing=False)``, whose
tracer is ``None``; either way each push site on a hot path pays one
``None`` check.  See ``docs/OBSERVABILITY.md`` for the metric catalogue
and naming convention.
"""

from repro.obs.export import (
    metrics_to_jsonl,
    metrics_to_prometheus,
    trace_to_jsonl,
    write_metrics,
    write_trace,
)
from repro.obs.instrument import Observability, instrument_network, instrument_node
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "TraceEvent",
    "Observability",
    "instrument_network",
    "instrument_node",
    "metrics_to_jsonl",
    "metrics_to_prometheus",
    "trace_to_jsonl",
    "write_metrics",
    "write_trace",
]
