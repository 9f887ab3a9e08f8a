"""Wiring: attach a metrics registry and tracer to a running simulation.

Instrumentation comes in two flavours, chosen per metric by cost:

* **push** -- the component updates an instrument on its own fast path
  (engine dispatch counters, the receiver's reconstruct-latency
  histogram, trace points).  Push sites hold a direct instrument
  reference, ``None`` when observability or tracing is off, so the off
  case costs one ``None`` check.
* **pull** -- the component already keeps cheap plain-int counters
  (:class:`~repro.netsim.link.LinkStats`,
  :class:`~repro.protocol.sender.SenderStats`, ...); a *collector*
  registered on the registry copies them into instruments only when a
  snapshot is taken.  Pull sites cost nothing while the simulation runs.

The full metric catalogue and naming convention live in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Optional

from repro.obs.metrics import (
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.obs.tracing import Tracer


class Observability:
    """A registry + tracer bundle handed through the simulation stack.

    Build one with :meth:`create`, then wire it with
    :func:`instrument_network` / :func:`instrument_node` /
    :func:`instrument_timeline`.  A run given ``obs=None`` records
    nothing; a bundle whose :attr:`tracer` is ``None`` records metrics
    only.
    """

    def __init__(self, registry: MetricsRegistry, tracer: Optional[Tracer]):
        self.registry = registry
        self.tracer = tracer

    @classmethod
    def create(cls, tracing: bool = True) -> "Observability":
        """A live bundle; ``tracing=False`` leaves :attr:`tracer` ``None``.

        The tracer's clock is bound to the engine by
        :func:`instrument_network` (until then it stamps time 0).
        """
        return cls(MetricsRegistry(), Tracer(clock=lambda: 0.0) if tracing else None)

    def snapshot(self):
        """Shorthand for ``registry.snapshot()``."""
        return self.registry.snapshot()


# -- engine -----------------------------------------------------------------------


class _EngineObserver:
    """Per-dispatch hook: handler-labelled event counts + queue depth.

    This runs once per simulated event, so it does the absolute minimum
    inline -- three plain-dict/int operations -- and leaves instrument
    materialisation to the snapshot-time collector.
    """

    __slots__ = ("counts", "depth", "max_depth")

    def __init__(self) -> None:
        # Keyed on the underlying function object (identity hash), not its
        # qualname (string hash through the bound-method proxy): ~2x
        # cheaper per event.  Collectors resolve names at snapshot time.
        self.counts: Dict[object, int] = {}
        self.depth = 0
        self.max_depth = 0

    def __call__(self, event, queue_depth: int) -> None:
        callback = event.callback
        key = getattr(callback, "__func__", callback)
        counts = self.counts
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
        self.depth = queue_depth
        if queue_depth > self.max_depth:
            self.max_depth = queue_depth

    def named_counts(self) -> Dict[str, int]:
        """Handler qualname -> dispatch count (merging same-named keys)."""
        named: Dict[str, int] = {}
        for key, count in self.counts.items():
            name = getattr(key, "__qualname__", repr(key))
            named[name] = named.get(name, 0) + count
        return named


def instrument_engine(obs: Observability, engine) -> None:
    """Attach dispatch counting and queue-depth gauges to an engine."""
    observer = _EngineObserver()
    engine.set_dispatch_hook(observer)

    registry = obs.registry
    processed = registry.counter("sim_engine_events_processed_total")
    pending = registry.gauge("sim_engine_pending_events")
    now_gauge = registry.gauge("sim_engine_time")
    depth_gauge = registry.gauge("sim_engine_queue_depth")
    depth_max_gauge = registry.gauge("sim_engine_queue_depth_max")

    def collect() -> None:
        for handler, count in observer.named_counts().items():
            registry.counter("sim_engine_events_total", handler=handler).value = float(count)
        depth_gauge.set(observer.depth)
        depth_max_gauge.set(observer.max_depth)
        processed.value = float(engine.events_processed)
        pending.set(engine.pending())
        now_gauge.set(engine.now)

    registry.register_collector(collect)


# -- links ------------------------------------------------------------------------

#: LinkStats field -> exported counter name.
_LINK_COUNTERS = {
    "offered": "sim_link_offered_total",
    "queue_drops": "sim_link_queue_drops_total",
    "serialized": "sim_link_serialized_total",
    "loss_drops": "sim_link_loss_drops_total",
    "delivered": "sim_link_delivered_total",
    "corruptions": "sim_link_corruptions_total",
    "bytes_offered": "sim_link_tx_bytes_total",
    "bytes_delivered": "sim_link_rx_bytes_total",
    "down_drops": "sim_link_down_drops_total",
    "down_losses": "sim_link_down_losses_total",
    "downs": "sim_link_downs_total",
    "ups": "sim_link_ups_total",
}


def _link_collector(registry: MetricsRegistry, link, channel: int, direction: str):
    labels = {"channel": str(channel), "direction": direction}
    counters = {
        field: registry.counter(name, **labels) for field, name in _LINK_COUNTERS.items()
    }
    up_gauge = registry.gauge("sim_link_up", **labels)
    depth_gauge = registry.gauge("sim_link_queue_depth", **labels)

    def collect() -> None:
        stats = link.stats
        for field, counter in counters.items():
            counter.value = float(getattr(stats, field))
        up_gauge.set(1.0 if link.up else 0.0)
        depth_gauge.set(link.queue_depth)

    return collect


def instrument_network(obs: Observability, network) -> None:
    """Wire a :class:`~repro.protocol.remicss.PointToPointNetwork`.

    Binds the tracer clock (if any) to the network's engine, attaches the
    engine dispatch hook, and registers pull collectors for every link.
    """
    if obs.tracer is not None:
        obs.tracer.clock = lambda: network.engine.now
    instrument_engine(obs, network.engine)
    registry = obs.registry
    for channel, duplex in enumerate(network.duplex):
        registry.register_collector(
            _link_collector(registry, duplex.forward, channel, "fwd")
        )
        registry.register_collector(
            _link_collector(registry, duplex.reverse, channel, "rev")
        )


# -- protocol nodes ---------------------------------------------------------------

#: SenderStats field -> exported counter name (labelled by node).
_SENDER_COUNTERS = {
    "symbols_offered": "sim_sender_symbols_offered_total",
    "symbols_sent": "sim_sender_symbols_sent_total",
    "source_drops": "sim_sender_source_drops_total",
    "shares_sent": "sim_sender_shares_total",
    "share_send_failures": "sim_sender_share_send_failures_total",
    "readiness_stalls": "sim_sender_readiness_stalls_total",
    "auth_tagged_shares": "sim_sender_auth_tagged_total",
}

#: ReceiverStats field -> exported counter name (labelled by node).
_RECEIVER_COUNTERS = {
    "shares_received": "sim_receiver_shares_total",
    "symbols_delivered": "sim_receiver_symbols_delivered_total",
    "late_shares": "sim_receiver_late_shares_total",
    "duplicate_shares": "sim_receiver_duplicate_shares_total",
    "evicted_symbols": "sim_receiver_timeout_evictions_total",
    "evicted_shares": "sim_receiver_evicted_shares_total",
    "decode_errors": "sim_receiver_decode_errors_total",
    "reconstruction_errors": "sim_receiver_reconstruction_errors_total",
    "cpu_rejected_shares": "sim_receiver_cpu_rejected_total",
    "corrupt_shares_detected": "sim_receiver_corrupt_shares_total",
    "replayed_shares_dropped": "sim_receiver_replayed_shares_total",
    "repair_extensions": "sim_receiver_repair_extensions_total",
    "repair_recovered": "sim_receiver_repair_recovered_total",
    "auth_verified_shares": "sim_receiver_auth_verified_total",
    "auth_failed_shares": "sim_receiver_auth_failed_total",
    "auth_missing_shares": "sim_receiver_auth_missing_total",
}


def instrument_node(obs: Observability, node) -> None:
    """Wire one :class:`~repro.protocol.remicss.RemicssNode`.

    Registers pull collectors for the sender and receiver counter blocks
    (per-channel share counts, schedule picks, queue/backlog gauges) and
    attaches the push-side reconstruct-latency histogram and the tracer.
    """
    registry = obs.registry
    name = node.name
    sender, receiver = node.sender, node.receiver

    sender_counters = {
        field: registry.counter(metric, node=name)
        for field, metric in _SENDER_COUNTERS.items()
    }
    backlog_gauge = registry.gauge("sim_sender_backlog", node=name)
    receiver_counters = {
        field: registry.counter(metric, node=name)
        for field, metric in _RECEIVER_COUNTERS.items()
    }
    pending_gauge = registry.gauge("sim_receiver_pending", node=name)
    pending_max_gauge = registry.gauge("sim_receiver_pending_max", node=name)

    def collect() -> None:
        sender_stats = sender.stats
        for field, counter in sender_counters.items():
            counter.value = float(getattr(sender_stats, field))
        backlog_gauge.set(sender.backlog)
        for channel, shares in enumerate(sender.shares_per_channel):
            registry.counter(
                "sim_sender_channel_shares_total", node=name, channel=str(channel)
            ).value = float(shares)
        pair_picks: Dict[tuple, int] = {}
        for (_flow, k, m), picks in sender.schedule_picks.items():
            pair_picks[k, m] = pair_picks.get((k, m), 0) + picks
        for (k, m), picks in sorted(pair_picks.items()):
            registry.counter(
                "sim_sender_schedule_picks_total", node=name, k=str(k), m=str(m)
            ).value = float(picks)
        receiver_stats = receiver.stats
        for field, counter in receiver_counters.items():
            counter.value = float(getattr(receiver_stats, field))
        pending_gauge.set(receiver.pending)
        pending_max_gauge.set(receiver.max_pending)
        for channel, fails in sorted(receiver.auth_fail_by_channel.items()):
            registry.counter(
                "sim_receiver_auth_fail_channel_total", node=name, channel=str(channel)
            ).value = float(fails)

    registry.register_collector(collect)

    # Push side: reconstruct latency lands straight in a histogram, and the
    # sender's transmit path emits share_tx events when tracing is on.
    receiver.latency_histogram = registry.histogram(
        "sim_receiver_reconstruct_latency", buckets=DEFAULT_LATENCY_BUCKETS, node=name
    )
    receiver.occupancy_histogram = registry.histogram(
        "sim_receiver_occupancy", buckets=DEFAULT_DEPTH_BUCKETS, node=name
    )
    sender.tracer = obs.tracer
    receiver.tracer = obs.tracer


# -- fault and attack timelines ----------------------------------------------------

#: Timeline kind -> (applied-events counter, plan-size gauge, prefix of the
#: counters exported from the injector's ``stats`` fields, if it keeps any).
_TIMELINE_METRICS = {
    "fault": ("sim_fault_events_total", "sim_fault_plan_events", None),
    "attack": ("adv_events_applied_total", "adv_plan_events", "adv"),
}


def instrument_timeline(obs: Observability, injector) -> None:
    """Wire a :class:`~repro.netsim.timeline.TimelineInjector` (faults or attacks).

    Registers a pull collector exporting the applied-event counts labelled
    by action and the plan size, plus -- for the adversary -- one
    ``adv_<field>_total`` counter per :class:`AttackStats` field; attaches
    the tracer so every applied event emits a ``<kind>_applied`` trace.
    """
    registry = obs.registry
    events_metric, plan_metric, stats_prefix = _TIMELINE_METRICS[injector.KIND]
    stat_counters = {}
    if stats_prefix is not None:
        stat_counters = {
            field.name: registry.counter(f"{stats_prefix}_{field.name}_total")
            for field in fields(injector.stats)
        }
    plan_gauge = registry.gauge(plan_metric)
    injector.tracer = obs.tracer

    def collect() -> None:
        for field, counter in stat_counters.items():
            counter.value = float(getattr(injector.stats, field))
        for action, count in injector.summary()["by_action"].items():
            registry.counter(events_metric, action=action).value = float(count)
        plan_gauge.set(len(injector.plan))

    registry.register_collector(collect)


# -- resilience -------------------------------------------------------------------

#: ResilienceStats field -> exported counter name (docs/RESILIENCE.md).
_RESILIENCE_COUNTERS = {
    "quarantines": "sim_resilience_quarantines_total",
    "reinstatements": "sim_resilience_reinstatements_total",
    "failovers": "sim_resilience_failovers_total",
    "restores": "sim_resilience_restores_total",
    "degraded_entries": "sim_resilience_degraded_total",
    "probes_sent": "sim_resilience_probes_sent_total",
    "probe_acks_sent": "sim_resilience_probe_acks_sent_total",
    "probe_acks_received": "sim_resilience_probe_acks_received_total",
    "nacks_sent": "sim_repair_nacks_total",
    "nacks_received": "sim_repair_nacks_received_total",
    "repair_shares_sent": "sim_repair_shares_sent_total",
    "repair_shares_dropped": "sim_repair_shares_dropped_total",
    "control_decode_errors": "sim_resilience_control_decode_errors_total",
}


def instrument_resilience(obs: Observability, manager) -> None:
    """Wire a :class:`~repro.protocol.resilience.ResilienceManager`.

    Registers a pull collector for the manager's counter block plus
    per-channel gauges: the quarantine state (0 = healthy, 1 = suspect,
    2 = quarantined, 3 = probing) and the detector's EWMA loss estimate.
    """
    # Local import: repro.protocol.resilience pulls in the planner stack,
    # which this low-level wiring module must not depend on at import time.
    from repro.protocol.resilience.manager import STATE_ORDINALS

    registry = obs.registry
    counters = {
        field: registry.counter(metric)
        for field, metric in _RESILIENCE_COUNTERS.items()
    }
    state_gauges = [
        registry.gauge("sim_resilience_channel_state", channel=str(channel))
        for channel in range(len(manager.guards))
    ]
    loss_gauges = [
        registry.gauge("sim_resilience_channel_loss_ewma", channel=str(channel))
        for channel in range(len(manager.guards))
    ]

    def collect() -> None:
        stats = manager.stats
        for field, counter in counters.items():
            counter.value = float(getattr(stats, field))
        for channel, guard in enumerate(manager.guards):
            state_gauges[channel].set(float(STATE_ORDINALS[guard.state]))
            loss_gauges[channel].set(manager.health.channel(channel).loss_ewma)

    registry.register_collector(collect)
