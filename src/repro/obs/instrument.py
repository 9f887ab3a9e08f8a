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
  Every field of such a record is exported as ``<prefix>_<field>_total``
  (:func:`_stats_exporter`); no metric name is kept by hand.

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


# -- stats records ----------------------------------------------------------------


def _stats_exporter(registry: MetricsRegistry, prefix: str, owner, **labels: str):
    """One ``<prefix>_<field>_total`` counter per field of ``owner.stats``.

    The one naming rule for every plain-int stats record: a metric is
    named after its field, so a new field is exported with no change
    here.  Returns the collector step that copies the fields in.
    """
    counters = [
        (field.name, registry.counter(f"{prefix}_{field.name}_total", **labels))
        for field in fields(owner.stats)
    ]

    def copy_stats() -> None:
        stats = owner.stats
        for name, counter in counters:
            counter.value = float(getattr(stats, name))

    return copy_stats


# -- links ------------------------------------------------------------------------


def _link_collector(registry: MetricsRegistry, link, channel: int, direction: str):
    labels = {"channel": str(channel), "direction": direction}
    copy_stats = _stats_exporter(registry, "sim_link", link, **labels)
    up_gauge = registry.gauge("sim_link_up", **labels)
    depth_gauge = registry.gauge("sim_link_queue_depth", **labels)

    def collect() -> None:
        copy_stats()
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


def instrument_node(obs: Observability, node) -> None:
    """Wire one :class:`~repro.protocol.remicss.RemicssNode`.

    Registers pull collectors for the sender and receiver counter blocks
    (per-channel share counts, schedule picks, queue/backlog gauges) and
    attaches the push-side reconstruct-latency histogram and the tracer.
    """
    registry = obs.registry
    name = node.name
    sender, receiver = node.sender, node.receiver

    copy_sender_stats = _stats_exporter(registry, "sim_sender", sender, node=name)
    backlog_gauge = registry.gauge("sim_sender_backlog", node=name)
    copy_receiver_stats = _stats_exporter(registry, "sim_receiver", receiver, node=name)
    pending_gauge = registry.gauge("sim_receiver_pending", node=name)
    pending_max_gauge = registry.gauge("sim_receiver_pending_max", node=name)

    def collect() -> None:
        copy_sender_stats()
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
        copy_receiver_stats()
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
#: counters exported from the injector's ``stats`` record, if it keeps one).
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
    copy_stats = None
    if stats_prefix is not None:
        copy_stats = _stats_exporter(registry, stats_prefix, injector)
    plan_gauge = registry.gauge(plan_metric)
    injector.tracer = obs.tracer

    def collect() -> None:
        if copy_stats is not None:
            copy_stats()
        for action, count in injector.summary()["by_action"].items():
            registry.counter(events_metric, action=action).value = float(count)
        plan_gauge.set(len(injector.plan))

    registry.register_collector(collect)


# -- resilience -------------------------------------------------------------------


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
    copy_stats = _stats_exporter(registry, "sim_resilience", manager)
    state_gauges = [
        registry.gauge("sim_resilience_channel_state", channel=str(channel))
        for channel in range(len(manager.guards))
    ]
    loss_gauges = [
        registry.gauge("sim_resilience_channel_loss_ewma", channel=str(channel))
        for channel in range(len(manager.guards))
    ]

    def collect() -> None:
        copy_stats()
        for channel, guard in enumerate(manager.guards):
            state_gauges[channel].set(float(STATE_ORDINALS[guard.state]))
            loss_gauges[channel].set(manager.health.channel(channel).loss_ewma)

    registry.register_collector(collect)
