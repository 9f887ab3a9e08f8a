"""Deterministic metrics: counters, gauges and fixed-bucket histograms.

Design constraints, in order:

1. **Determinism.**  Metrics only ever observe simulated quantities
   (sim-time latencies, event counts, queue depths).  Nothing here reads a
   wall clock or iterates an unordered container when exporting, so two
   runs with the same seed dump byte-identical snapshots.
2. **Nothing recorded when off.**  Observability is off when a run is
   given ``obs=None``: no registry exists, and a push site pays one
   ``None`` check.
3. **Prometheus-compatible naming.**  Metric names are
   ``snake_case`` with a ``sim_`` prefix and conventional suffixes
   (``_total`` for counters, ``_bytes``/``_seconds``-style units spelled
   in simulator unit times).  Labels are plain str -> str pairs.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram buckets for sim-time latencies (unit times; with the
#: paper's 10 ms unit this spans 1 ms .. 1 s).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

#: Default buckets for queue-depth style small-integer distributions.
DEFAULT_DEPTH_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)

_NAME_ALLOWED = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _validate_name(name: str) -> str:
    if not name or set(name) - _NAME_ALLOWED or name[0].isdigit():
        raise ValueError(
            f"metric name must be snake_case [a-z0-9_], not starting with a "
            f"digit; got {name!r}"
        )
    return name


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (events, bytes, drops).

    Pull collectors assign :attr:`value` from the stats a component
    already keeps.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def as_sample(self) -> dict:
        return {"type": "counter", "name": self.name, "labels": dict(self.labels), "value": self.value}


class Gauge:
    """An instantaneous level (queue depth, buffer occupancy)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_sample(self) -> dict:
        return {"type": "gauge", "name": self.name, "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket histogram of sim-time observations.

    Buckets are cumulative-upper-bound style (Prometheus ``le``): an
    observation lands in every bucket whose bound is >= the value, plus
    the implicit ``+Inf`` bucket.  Bucket bounds are fixed at creation so
    two runs aggregate identically.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum", "minimum", "maximum")

    def __init__(self, name: str, labels: Dict[str, str], buckets: Sequence[float]):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = [float(b) for b in buckets]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing, got {buckets}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)  # non-cumulative per-bucket counts
        self.count = 0
        self.sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bucket_counts):
            self.bucket_counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``(inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    def as_sample(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "buckets": [
                ["+Inf" if math.isinf(le) else le, cumulative]
                for le, cumulative in self.cumulative_buckets()
            ],
        }


class MetricsRegistry:
    """The process-wide (per-run) home of every instrument.

    Instruments are created lazily and cached by ``(name, labels)``, so
    hot paths can call ``registry.counter("sim_x_total", channel="3")``
    repeatedly, though caching the returned instrument is faster.

    *Collectors* are callables invoked (in registration order) at
    :meth:`snapshot` time; pull-style instrumentation registers one to
    copy already-kept component stats (e.g. :class:`~repro.netsim.link.LinkStats`)
    into the registry without touching the per-packet fast path.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, Tuple[Tuple[str, str], ...]], object] = {}
        self._collectors: List = []

    # -- instrument factories ---------------------------------------------------

    def _get(self, kind: str, name: str, labels: Dict[str, str], factory):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            _validate_name(name)
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name{labels}``."""
        labels = {k: str(v) for k, v in labels.items()}
        return self._get("counter", name, labels, lambda: Counter(name, labels))

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        labels = {k: str(v) for k, v in labels.items()}
        return self._get("gauge", name, labels, lambda: Gauge(name, labels))

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: str
    ) -> Histogram:
        """Get or create the histogram ``name{labels}`` with fixed ``buckets``."""
        labels = {k: str(v) for k, v in labels.items()}
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        return self._get("histogram", name, labels, lambda: Histogram(name, labels, bounds))

    # -- collection -------------------------------------------------------------

    def register_collector(self, collector) -> None:
        """Register a zero-argument callable run before every snapshot."""
        self._collectors.append(collector)

    def snapshot(self) -> List[dict]:
        """All samples, deterministically ordered by (name, labels, type).

        Runs every registered collector first so pull-style metrics are
        current, then renders each instrument with :meth:`as_sample`.
        """
        for collector in self._collectors:
            collector()
        samples = [
            instrument.as_sample() for instrument in self._instruments.values()
        ]
        samples.sort(key=lambda s: (s["name"], _label_key(s["labels"]), s["type"]))
        return samples
