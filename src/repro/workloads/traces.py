"""Synthetic application-traffic generators.

The paper motivates the protocol with concrete application classes --
web browsing over CDNs, streaming music, interactive organising -- whose
traffic looks nothing like iperf's constant datagram stream.  This module
generates synthetic traces with the right *shape* for three such classes
and drives them through the transparent DIBS tunnel, so the protocol is
exercised under realistic datagram-size and interarrival distributions:

* **web**: request/response pairs; response sizes are heavy-tailed
  (bounded Pareto, the classic web-object model), arrivals bursty;
* **streaming**: constant-bitrate datagrams with tiny jitter;
* **messaging**: Poisson arrivals of small messages.

Each generator yields ``(time, payload)`` events; :func:`run_trace`
tunnels a trace between two protocol nodes and reports delivery/integrity
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple


import numpy as np

from repro.core.channel import ChannelSet
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.dibs import DibsInterceptor
from repro.protocol.remicss import PointToPointNetwork

#: One trace event: (send time, application datagram payload).
TraceEvent = Tuple[float, bytes]

#: Run time after the trace ends, so in-flight data arrives.
DRAIN = 20.0


def _bounded_pareto(
    rng: np.random.Generator, shape: float, low: float, high: float
) -> float:
    """One draw from a Pareto distribution truncated to [low, high]."""
    u = rng.random()
    ha = high**shape
    la = low**shape
    return (-(u * (ha - la) - ha) / (ha * la)) ** (-1.0 / shape)


def web_trace(
    duration: float,
    rng: np.random.Generator,
    requests_per_unit: float = 2.0,
    min_response: int = 200,
    max_response: int = 20_000,
    pareto_shape: float = 1.2,
) -> Iterator[TraceEvent]:
    """Bursty request/response traffic with heavy-tailed response sizes."""
    now = 0.0
    while True:
        now += rng.exponential(1.0 / requests_per_unit)
        if now >= duration:
            return
        request = rng.bytes(int(rng.integers(60, 400)))
        yield (now, request)
        response_size = int(_bounded_pareto(rng, pareto_shape, min_response, max_response))
        response = rng.bytes(response_size)
        yield (now + float(rng.uniform(0.01, 0.05)), response)


def streaming_trace(
    duration: float,
    rng: np.random.Generator,
    datagram_size: int = 1000,
    datagrams_per_unit: float = 16.0,
    jitter: float = 0.005,
) -> Iterator[TraceEvent]:
    """Constant-bitrate media datagrams with small timing jitter."""
    interval = 1.0 / datagrams_per_unit
    count = int(duration / interval)
    for i in range(count):
        when = i * interval + float(rng.uniform(0.0, jitter))
        if when < duration:
            yield (when, rng.bytes(datagram_size))


def messaging_trace(
    duration: float,
    rng: np.random.Generator,
    messages_per_unit: float = 1.0,
    min_size: int = 20,
    max_size: int = 500,
) -> Iterator[TraceEvent]:
    """Poisson arrivals of small chat-style messages."""
    now = 0.0
    while True:
        now += rng.exponential(1.0 / messages_per_unit)
        if now >= duration:
            return
        yield (now, rng.bytes(int(rng.integers(min_size, max_size + 1))))


TRACE_GENERATORS = {
    "web": web_trace,
    "streaming": streaming_trace,
    "messaging": messaging_trace,
}


@dataclass(frozen=True)
class TraceResult:
    """Outcome of tunnelling one trace through the protocol.

    Attributes:
        sent: application datagrams offered.
        delivered: datagrams reassembled at the far end.
        intact: delivered datagrams whose bytes match what was sent.
        bytes_sent: application payload bytes offered.
        mean_size: mean offered datagram size.
    """

    sent: int
    delivered: int
    intact: int
    bytes_sent: int
    mean_size: float

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0


def run_trace(
    channels: ChannelSet,
    config: ProtocolConfig,
    kind: str = "web",
    duration: float = 30.0,
    seed: int = 1,
) -> TraceResult:
    """Tunnel a synthetic application trace between two protocol nodes.

    Args:
        channels: the channel set shaping the simulated links.
        config: protocol configuration (real payload mode required).
        kind: "web", "streaming" or "messaging".
        duration: trace length in unit times (finite and positive).
        seed: root seed for the trace and the network.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and positive, got {duration}")
    if config.share_synthetic:
        raise ValueError("trace workloads need real payloads")
    if kind not in TRACE_GENERATORS:
        raise ValueError(f"unknown trace kind {kind!r}; options: {sorted(TRACE_GENERATORS)}")
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, config.symbol_size, registry)
    node_a, node_b = network.node_pair(config, registry)

    received: List[bytes] = []
    DibsInterceptor(node_b, on_datagram=received.append)
    tunnel = DibsInterceptor(node_a)

    events = sorted(
        TRACE_GENERATORS[kind](duration, registry.stream("trace")),
        key=lambda event: event[0],
    )
    sent_payloads = [payload for _, payload in events]
    for when, payload in events:
        network.engine.schedule_at(when, tunnel.intercept, payload)
    # A response can be timed after the window ends; flushing any earlier
    # would strand its last partial symbol in the tunnel's buffer.
    last = events[-1][0] if events else duration
    network.engine.schedule_at(max(duration, last), tunnel.flush)
    network.engine.run_until(duration + DRAIN)
    network.teardown(node_a, node_b)

    # Delivery is in order but lossy: a delivered datagram is intact when
    # it equals a sent one after the previous match.
    intact = start = 0
    for got in received:
        try:
            start = sent_payloads.index(got, start) + 1
        except ValueError:
            continue
        intact += 1
    total_bytes = sum(len(p) for p in sent_payloads)
    return TraceResult(
        sent=len(sent_payloads),
        delivered=len(received),
        intact=intact,
        bytes_sent=total_bytes,
        mean_size=total_bytes / len(sent_payloads) if sent_payloads else 0.0,
    )
