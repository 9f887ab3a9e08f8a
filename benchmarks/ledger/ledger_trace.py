"""Outside-in attribution for the ledger: patch, time, restore.

Nothing here edits ``src/``.  Every measurement wraps a public callable
at the binding its caller looks up (a class attribute, or the name a
module imported), runs the workload, and puts the original back.

Attribution (``LayerTracer``) has three steps:

1. An ``Engine.set_dispatch_hook`` hook, installed on every engine as it
   is built, replaces each dispatched event's callback with a span of the
   layer that owns the callback's module (:data:`MODULE_LAYERS`).
2. Span probes (:data:`SPAN_PROBES`) wrap public callables so the time a
   callback spends in another layer is carved out of it; callbacks
   registered through :data:`CALLBACK_PROBES` are wrapped like events.
3. A layer's self time is its spans' time minus their child spans.

A probe whose target no longer exists is skipped and reported in
``unbound``.  Its layer then stops claiming event callbacks by module, so
its time lands in ``unattributed`` and ``trace.coverage`` drops instead of
the benchmark failing.

``SetupClock`` is what the timed, untraced runs carry instead: it sums,
over every engine, the CPU time from construction to its first ``run``
or ``run_until``.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every layer the trace reports, named after the modules it covers.
LAYERS = (
    "netsim.engine",
    "netsim.link",
    "netsim.readiness",
    "netsim.ports",
    "protocol.sender",
    "protocol.scheduler",
    "fleet.mux",
    "protocol.wire",
    "sharing.shamir",
    "gf.batch",
    "sharing.robust",
    "protocol.auth",
    "protocol.receiver",
    "adversary.active",
    "workload",
    "unattributed",
)

#: The per-layer metric catalogue, ``(name, unit, better)``, in the order
#: :meth:`LayerTracer.metrics` reports it.  Counts are exact; fractions
#: and the overhead ratio are indicative.
PER_LAYER_METRICS = tuple(
    metric
    for layer in LAYERS
    for metric in (
        (f"{layer}.self_frac", "ratio", "lower"),
        (f"{layer}.calls", "count", "lower"),
    )
) + (
    ("netsim.engine.events_per_symbol", "count", "lower"),
    ("netsim.engine.schedules_per_symbol", "count", "lower"),
    ("netsim.link.drops", "count", "lower"),
    ("protocol.wire.bytes_per_symbol", "B", "lower"),
    ("gf.batch.calls_per_split", "count", "lower"),
    ("protocol.receiver.shares_per_symbol", "count", "lower"),
    ("protocol.receiver.evicted_symbols", "count", "lower"),
    ("protocol.receiver.waste", "count", "lower"),
    ("protocol.auth.failed", "count", "lower"),
    ("protocol.sender.source_drops", "count", "lower"),
    ("protocol.sender.readiness_stalls", "count", "lower"),
    ("fleet.mux.rounds_per_symbol", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.unbound_probes", "count", "lower"),
)

#: Module prefix -> layer for event and registered callbacks; the longest
#: matching prefix wins.  Unlisted modules are ``unattributed``.
MODULE_LAYERS = {
    "repro.netsim.engine": "netsim.engine",
    "repro.netsim.link": "netsim.link",
    "repro.netsim.readiness": "netsim.readiness",
    "repro.netsim.ports": "netsim.ports",
    "repro.protocol.sender": "protocol.sender",
    "repro.protocol.scheduler": "protocol.scheduler",
    "repro.fleet.mux": "fleet.mux",
    "repro.protocol.wire": "protocol.wire",
    "repro.sharing.shamir": "sharing.shamir",
    "repro.gf.batch": "gf.batch",
    "repro.sharing.robust": "sharing.robust",
    "repro.protocol.auth": "protocol.auth",
    "repro.protocol.receiver": "protocol.receiver",
    "repro.adversary.active": "adversary.active",
    # The traffic generators and harnesses around the protocol.
    "repro.adversary.active.harness": "workload",
    "repro.workloads": "workload",
    "repro.fleet.cell": "workload",
    "repro.fleet.runner": "workload",
    "repro.sweep": "workload",
}

#: Callables timed as spans of a layer, at the binding their callers use.
SPAN_PROBES = (
    ("repro.netsim.engine.Engine.run", "netsim.engine"),
    ("repro.netsim.engine.Engine.run_until", "netsim.engine"),
    ("repro.netsim.engine.Engine.schedule_at", "netsim.engine"),
    ("repro.netsim.link.Link.send", "netsim.link"),
    ("repro.netsim.ports.ChannelPort.send", "netsim.ports"),
    ("repro.netsim.readiness.WriteSelector.select", "netsim.readiness"),
    ("repro.protocol.sender.ShareSender.offer", "protocol.sender"),
    ("repro.protocol.scheduler.DynamicParameterSampler.sample", "protocol.scheduler"),
    ("repro.fleet.mux.FlowMux.enqueue", "fleet.mux"),
    ("repro.fleet.mux.FlowMux.pump", "fleet.mux"),
    ("repro.protocol.sender.encode_share", "protocol.wire"),
    ("repro.protocol.receiver.decode_share", "protocol.wire"),
    ("repro.sharing.shamir.ShamirScheme.split", "sharing.shamir"),
    ("repro.sharing.shamir.ShamirScheme.split_many", "sharing.shamir"),
    ("repro.sharing.shamir.ShamirScheme.reconstruct", "sharing.shamir"),
    ("repro.sharing.shamir.ShamirScheme.reconstruct_many", "sharing.shamir"),
    ("repro.sharing.shamir.eval_poly_at_points", "gf.batch"),
    ("repro.sharing.shamir.lagrange_interpolate", "gf.batch"),
    ("repro.sharing.robust.lagrange_interpolate", "gf.batch"),
    ("repro.protocol.receiver.robust_reconstruct", "sharing.robust"),
    ("repro.protocol.receiver.reconstruct_with_erasures", "sharing.robust"),
    ("repro.protocol.auth.mac.ShareAuthenticator.tag", "protocol.auth"),
    ("repro.protocol.auth.mac.ShareAuthenticator.verify", "protocol.auth"),
    ("repro.protocol.receiver.ReassemblyBuffer.handle_datagram", "protocol.receiver"),
    ("repro.adversary.active.engine._LinkAttackState._tap", "adversary.active"),
)

#: Registration methods whose callbacks are timed like event callbacks
#: (by their module): the sender's writable pump and the adversary's
#: wire taps run inside link events otherwise.
CALLBACK_PROBES = (
    "repro.netsim.link.Link.watch_writable",
    "repro.netsim.link.Link.watch_transmit",
)

#: Constructors whose instances' ``stats`` the trace reads afterwards.
STATS_PROBES = (
    ("repro.netsim.link.Link.__init__", "link"),
    ("repro.protocol.sender.ShareSender.__init__", "sender"),
    ("repro.protocol.receiver.ReassemblyBuffer.__init__", "receiver"),
    ("repro.fleet.mux.FlowMux.__init__", "mux"),
)

#: Where every engine gets its dispatch hook.
ENGINE_INIT = "repro.netsim.engine.Engine.__init__"
DISPATCH_HOOK = "repro.netsim.engine.Engine.set_dispatch_hook"

#: Probe counts the per-layer metrics divide by.
SCHEDULE_PROBE = "repro.netsim.engine.Engine.schedule_at"
SPLIT_KERNEL_PROBE = "repro.sharing.shamir.eval_poly_at_points"

_MISSING = object()


def resolve(path: str) -> Optional[Tuple[Any, str]]:
    """``(owner, attribute)`` for a dotted probe path, or None if gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, _MISSING)
            if owner is _MISSING:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Patcher:
    """Replaces attributes and puts every original back, newest first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, path: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace ``path`` with ``make(original)``; False if it is gone."""
        target = resolve(path)
        if target is None:
            return False
        owner, name = target
        original = getattr(owner, name)
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, make(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, name, previous = self._saved.pop()
            if previous is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)


class SetupClock:
    """Sums each engine's construction-to-first-run time, in CPU seconds."""

    def __init__(self) -> None:
        self.total = 0.0
        self._born: Dict[int, float] = {}

    def install(self, patcher: Patcher) -> None:
        clock = time.process_time
        born = self._born

        def init_wrapper(original):
            @functools.wraps(original)
            def __init__(engine, *args, **kwargs):
                born[id(engine)] = clock()
                original(engine, *args, **kwargs)

            return __init__

        def run_wrapper(original):
            @functools.wraps(original)
            def run(engine, *args, **kwargs):
                started = born.pop(id(engine), None)
                if started is not None:
                    self.total += clock() - started
                return original(engine, *args, **kwargs)

            return run

        patcher.wrap(ENGINE_INIT, init_wrapper)
        patcher.wrap("repro.netsim.engine.Engine.run", run_wrapper)
        patcher.wrap("repro.netsim.engine.Engine.run_until", run_wrapper)


class LayerTracer:
    """Per-layer self time, layer-entry counts and work counts of one run.

    Args:
        span_probes: ``(path, layer)`` pairs; tests pass a modified list
            to check that a missing target degrades the trace gracefully.
    """

    def __init__(self, span_probes=SPAN_PROBES) -> None:
        self.span_probes = tuple(span_probes)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        #: Entries into each layer from a different layer.
        self.calls = dict.fromkeys(LAYERS, 0)
        #: Calls per span probe path, nested same-layer calls included.
        self.probe_calls: Dict[str, int] = {}
        self.events = 0
        self.stats: Dict[str, list] = {kind: [] for _path, kind in STATS_PROBES}
        self.unbound: List[str] = []
        self.total = 0.0
        self._stack: List[list] = []
        self._module_layers = dict(MODULE_LAYERS)
        self._layer_cache: Dict[str, str] = {}

    # -- spans ------------------------------------------------------------------

    def _span(self, layer: str, fn: Callable, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            self.self_time[layer] += elapsed - frame[1]
            self.calls[layer] += 1
            if stack:
                stack[-1][1] += elapsed

    def layer_of(self, callback: Callable) -> str:
        """The layer owning ``callback``'s module (bound methods, partials)."""
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "func", func)
        module = getattr(func, "__module__", None) or ""
        layer = self._layer_cache.get(module)
        if layer is None:
            parts = module.split(".")
            prefixes = (".".join(parts[:cut]) for cut in range(len(parts), 0, -1))
            layer = next(
                (self._module_layers[p] for p in prefixes if p in self._module_layers),
                "unattributed",
            )
            self._layer_cache[module] = layer
        return layer

    def _timed_callback(self, callback: Callable) -> Callable:
        layer = self.layer_of(callback)

        def timed(*args):
            return self._span(layer, callback, args, {})

        return timed

    def _on_dispatch(self, event, _depth: int) -> None:
        self.events += 1
        event.callback = self._timed_callback(event.callback)

    # -- installation -------------------------------------------------------------

    def _install(self, patcher: Patcher) -> None:
        tracer = self
        degraded = set()

        for path, layer in self.span_probes:
            probe_calls = self.probe_calls
            probe_calls[path] = 0

            def span_wrapper(original, path=path, layer=layer):
                # wraps() keeps __module__: callbacks are attributed by it.
                @functools.wraps(original)
                def probe(*args, **kwargs):
                    probe_calls[path] += 1
                    return tracer._span(layer, original, args, kwargs)

                return probe

            if not patcher.wrap(path, span_wrapper):
                self.unbound.append(path)
                degraded.add(layer)

        def callback_wrapper(original):
            @functools.wraps(original)
            def register(owner, callback, *args, **kwargs):
                return original(owner, tracer._timed_callback(callback), *args, **kwargs)

            return register

        for path in CALLBACK_PROBES:
            if not patcher.wrap(path, callback_wrapper):
                self.unbound.append(path)

        for path, kind in STATS_PROBES:
            collected = self.stats[kind]

            def stats_wrapper(original, collected=collected):
                @functools.wraps(original)
                def __init__(owner, *args, **kwargs):
                    original(owner, *args, **kwargs)
                    stats = getattr(owner, "stats", None)
                    if stats is not None:
                        collected.append(stats)

                return __init__

            if not patcher.wrap(path, stats_wrapper):
                self.unbound.append(path)

        def engine_wrapper(original):
            @functools.wraps(original)
            def __init__(engine, *args, **kwargs):
                original(engine, *args, **kwargs)
                engine.set_dispatch_hook(tracer._on_dispatch)

            return __init__

        if resolve(DISPATCH_HOOK) is None:
            self.unbound.append(DISPATCH_HOOK)
        elif not patcher.wrap(ENGINE_INIT, engine_wrapper):
            self.unbound.append(ENGINE_INIT)

        # A layer with a missing probe no longer claims callbacks by module.
        self._module_layers = {
            prefix: layer
            for prefix, layer in MODULE_LAYERS.items()
            if layer not in degraded
        }

    def run(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` traced, as the root span of the ``workload`` layer."""
        patcher = Patcher()
        try:
            self._install(patcher)
            started = time.perf_counter()
            result = self._span("workload", fn, args, kwargs)
            self.total = time.perf_counter() - started
        finally:
            patcher.restore()
        return result

    # -- results ------------------------------------------------------------------

    def metrics(self, delivered: int, untraced_wall: float) -> Dict[str, float]:
        """The per-layer metric values of the finished run."""
        total = self.total or 1.0
        per_symbol = 1.0 / delivered if delivered else 0.0
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = self.self_time[layer] / total
            out[f"{layer}.calls"] = self.calls[layer]
        def total_of(kind: str, *fields: str) -> int:
            # getattr: a renamed counter reads 0 instead of failing the run.
            return sum(
                getattr(stats, name, 0) for stats in self.stats[kind] for name in fields
            )

        sent = total_of("sender", "symbols_sent")
        out["netsim.engine.events_per_symbol"] = self.events * per_symbol
        out["netsim.engine.schedules_per_symbol"] = (
            self.probe_calls.get(SCHEDULE_PROBE, 0) * per_symbol
        )
        out["netsim.link.drops"] = total_of(
            "link", "queue_drops", "loss_drops", "down_drops", "down_losses"
        )
        out["protocol.wire.bytes_per_symbol"] = total_of("link", "bytes_offered") * per_symbol
        out["gf.batch.calls_per_split"] = (
            self.probe_calls.get(SPLIT_KERNEL_PROBE, 0) / sent if sent else 0.0
        )
        out["protocol.receiver.shares_per_symbol"] = (
            total_of("receiver", "shares_received") * per_symbol
        )
        out["protocol.receiver.evicted_symbols"] = total_of("receiver", "evicted_symbols")
        out["protocol.receiver.waste"] = total_of(
            "receiver", "late_shares", "duplicate_shares", "replayed_shares_dropped"
        )
        out["protocol.auth.failed"] = total_of(
            "receiver", "auth_failed_shares", "auth_missing_shares"
        )
        out["protocol.sender.source_drops"] = total_of("sender", "source_drops")
        out["protocol.sender.readiness_stalls"] = total_of("sender", "readiness_stalls")
        out["fleet.mux.rounds_per_symbol"] = total_of("mux", "rounds") * per_symbol
        out["trace.overhead_ratio"] = self.total / untraced_wall if untraced_wall else 0.0
        out["trace.coverage"] = 1.0 - self.self_time["unattributed"] / total
        out["trace.unbound_probes"] = len(self.unbound)
        return out
