"""Declarative, deterministic fault injection for the simulated testbed.

The paper's evaluation (Sec. V-VI) shapes every channel once and leaves it
alone for the whole run; real channels flap, burst, slow down and heal.
This module injects such behaviour as data, not code:

* a :class:`FaultEvent` is one timed mutation of one (or every) channel --
  an outage (``link_down``/``link_up``), a parameter override
  (``set_loss``/``set_delay``/``set_jitter``/``set_rate``), a burst-loss
  regime (``burst_start``/``burst_stop`` with a two-state
  :class:`GilbertElliott` process), or a whole-set ``partition``/``heal``;
* a :class:`FaultPlan` is an ordered timeline of events, built fluently or
  parsed from a JSON spec (the CLI's ``--faults``);
* a :class:`FaultInjector` schedules the plan on the event
  :class:`~repro.netsim.engine.Engine` and applies each mutation through
  :class:`~repro.netsim.link.Link`'s safe runtime setters, recording every
  applied event in :attr:`FaultInjector.log` so reports can attribute
  degradation to injected faults.

Determinism: event timing comes solely from the engine (ties break on
scheduling order) and every random draw -- including the Gilbert-Elliott
state walks -- flows through the affected link's own named rng stream, so
two runs with the same root seed produce byte-identical traces.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.netsim.link import LossModel
from repro.netsim.timeline import DIRECTIONS as DIRECTIONS
from repro.netsim.timeline import Timeline, TimelineEvent, TimelineInjector, build_scenario

#: Required / allowed parameter keys per action.
_PARAM_KEYS: Dict[str, Tuple[str, ...]] = {
    "link_down": (),
    "link_up": (),
    "set_loss": ("loss",),
    "set_delay": ("delay",),
    "set_jitter": ("jitter",),
    "set_rate": ("byte_rate", "scale"),
    "burst_start": ("p_bad", "p_good", "loss_good", "loss_bad"),
    "burst_stop": (),
    "partition": (),
    "heal": (),
}

#: Every recognised fault action.
ACTIONS = tuple(_PARAM_KEYS)


class GilbertElliott(LossModel):
    """Two-state (good/bad) Markov burst-loss process, per packet.

    The classic Gilbert-Elliott channel: each serialised packet is lost
    with probability ``loss_good`` in the good state and ``loss_bad`` in
    the bad state; after the loss draw the state flips good -> bad with
    probability ``p_bad`` and bad -> good with probability ``p_good``.
    Expected bad-state occupancy is ``p_bad / (p_bad + p_good)`` and mean
    burst length is ``1 / p_good`` packets.

    The process owns no randomness of its own: :meth:`sample` draws from
    the rng the link passes in, which keeps runs seed-deterministic.
    """

    def __init__(
        self,
        p_bad: float,
        p_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ):
        for label, p in (("p_bad", p_bad), ("p_good", p_good)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be a probability, got {p}")
        if not 0.0 <= loss_good < 1.0:
            raise ValueError(f"loss_good must be in [0, 1), got {loss_good}")
        if not 0.0 <= loss_bad <= 1.0:
            raise ValueError(f"loss_bad must be in [0, 1], got {loss_bad}")
        self.p_bad = p_bad
        self.p_good = p_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False

    def sample(self, rng: np.random.Generator) -> bool:
        loss = self.loss_bad if self.bad else self.loss_good
        lost = loss > 0.0 and rng.random() < loss
        flip = self.p_good if self.bad else self.p_bad
        if flip > 0.0 and rng.random() < flip:
            self.bad = not self.bad
        return lost


def _burst_model(params: Dict[str, float]) -> GilbertElliott:
    return GilbertElliott(
        params["p_bad"],
        params["p_good"],
        params.get("loss_good", 0.0),
        params.get("loss_bad", 1.0),
    )


class FaultEvent(TimelineEvent):
    """One timed fault: an action applied to one channel (or all of them).

    Attributes:
        time: absolute simulated time the fault fires.
        action: one of :data:`ACTIONS`.
        channel: model channel index, or ``None`` for every channel
            (``partition``/``heal`` default to every channel).
        direction: "fwd", "rev" or "both" duplex directions;
            ``partition``/``heal`` always act on both.
        params: action parameters (see :data:`_PARAM_KEYS`); e.g.
            ``{"loss": 0.2}`` for ``set_loss`` or ``{"scale": 0.1}`` for a
            relative ``set_rate``.
    """

    KIND = "fault"
    PARAM_KEYS = _PARAM_KEYS

    def _check_params(self) -> None:
        if self.action in ("partition", "heal") and self.direction != "both":
            raise ValueError(
                f"{self.action} acts on both directions; got direction {self.direction!r}"
            )
        if self.action == "set_loss":
            if "loss" not in self.params:
                raise ValueError("set_loss needs a 'loss' parameter")
            if not 0.0 <= self.params["loss"] < 1.0:
                raise ValueError(f"loss must be in [0, 1), got {self.params['loss']}")
        if self.action == "set_delay":
            if "delay" not in self.params:
                raise ValueError("set_delay needs a 'delay' parameter")
            if self.params["delay"] < 0:
                raise ValueError(f"delay must be nonnegative, got {self.params['delay']}")
        if self.action == "set_jitter":
            if "jitter" not in self.params:
                raise ValueError("set_jitter needs a 'jitter' parameter")
            if self.params["jitter"] < 0:
                raise ValueError(f"jitter must be nonnegative, got {self.params['jitter']}")
        if self.action == "set_rate":
            if not (("byte_rate" in self.params) ^ ("scale" in self.params)):
                raise ValueError("set_rate needs exactly one of 'byte_rate' or 'scale'")
            value = self.params.get("byte_rate", self.params.get("scale"))
            if value <= 0:
                raise ValueError(f"set_rate value must be positive, got {value}")
        if self.action == "burst_start":
            for key in ("p_bad", "p_good"):
                if key not in self.params:
                    raise ValueError(f"burst_start needs a {key!r} parameter")
            # Constructing the process validates every probability eagerly.
            _burst_model(self.params)


class FaultPlan(Timeline):
    """A seeded-run fault timeline: an ordered collection of fault events.

    Build fluently (every builder returns ``self``)::

        plan = (FaultPlan()
                .link_down(5.0, channel=0)
                .link_up(8.0, channel=0)
                .burst(10.0, p_bad=0.05, p_good=0.25, channel=2)
                .end_burst(20.0, channel=2)
                .partition(22.0)
                .heal(24.0))

    or parse the equivalent JSON spec with :meth:`from_json` /
    :meth:`from_spec`.  The plan itself is pure data; nothing happens until
    a :class:`FaultInjector` arms it on an engine.
    """

    EVENT = FaultEvent

    def link_down(self, time: float, channel: Optional[int] = None, direction: str = "both") -> "FaultPlan":
        """Take a channel (or all channels) down at ``time``."""
        return self.add(FaultEvent(time, "link_down", channel, direction))

    def link_up(self, time: float, channel: Optional[int] = None, direction: str = "both") -> "FaultPlan":
        """Bring a channel (or all channels) back up at ``time``."""
        return self.add(FaultEvent(time, "link_up", channel, direction))

    def set_loss(self, time: float, loss: float, channel: Optional[int] = None, direction: str = "both") -> "FaultPlan":
        """Override a channel's iid loss probability at ``time``."""
        return self.add(FaultEvent(time, "set_loss", channel, direction, {"loss": loss}))

    def set_delay(self, time: float, delay: float, channel: Optional[int] = None, direction: str = "both") -> "FaultPlan":
        """Override a channel's propagation delay at ``time``."""
        return self.add(FaultEvent(time, "set_delay", channel, direction, {"delay": delay}))

    def set_jitter(self, time: float, jitter: float, channel: Optional[int] = None, direction: str = "both") -> "FaultPlan":
        """Override a channel's delay jitter at ``time``."""
        return self.add(FaultEvent(time, "set_jitter", channel, direction, {"jitter": jitter}))

    def set_rate(
        self,
        time: float,
        byte_rate: Optional[float] = None,
        scale: Optional[float] = None,
        channel: Optional[int] = None,
        direction: str = "both",
    ) -> "FaultPlan":
        """Override a channel's serialisation rate, absolutely or by a factor."""
        params: Dict[str, float] = {}
        if byte_rate is not None:
            params["byte_rate"] = byte_rate
        if scale is not None:
            params["scale"] = scale
        return self.add(FaultEvent(time, "set_rate", channel, direction, params))

    def burst(
        self,
        time: float,
        p_bad: float,
        p_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        channel: Optional[int] = None,
        direction: str = "both",
    ) -> "FaultPlan":
        """Enter a Gilbert-Elliott burst-loss regime at ``time``."""
        return self.add(
            FaultEvent(
                time, "burst_start", channel, direction,
                {"p_bad": p_bad, "p_good": p_good, "loss_good": loss_good, "loss_bad": loss_bad},
            )
        )

    def end_burst(self, time: float, channel: Optional[int] = None, direction: str = "both") -> "FaultPlan":
        """Leave the burst-loss regime (iid loss resumes) at ``time``."""
        return self.add(FaultEvent(time, "burst_stop", channel, direction))

    def partition(self, time: float, channel: Optional[int] = None) -> "FaultPlan":
        """Down every channel (or one) in both directions at ``time``."""
        return self.add(FaultEvent(time, "partition", channel))

    def heal(self, time: float, channel: Optional[int] = None) -> "FaultPlan":
        """Restore every channel (or one) in both directions at ``time``."""
        return self.add(FaultEvent(time, "heal", channel))

    def flap(
        self,
        channel: Optional[int],
        period: float,
        down_for: float,
        start: float,
        stop: float,
        direction: str = "both",
    ) -> "FaultPlan":
        """Flap a channel: down at ``start``, up ``down_for`` later, every ``period``.

        Generates ``link_down``/``link_up`` pairs until ``stop``; always
        ends with a ``link_up`` so the channel heals.
        """
        if period <= 0 or down_for <= 0 or down_for >= period:
            raise ValueError(f"need 0 < down_for < period, got period={period}, down_for={down_for}")
        t = start
        while t < stop:
            self.link_down(t, channel, direction)
            self.link_up(min(t + down_for, stop), channel, direction)
            t += period
        return self


class FaultInjector(TimelineInjector):
    """Applies a :class:`FaultPlan` to a set of duplex channels.

    Args:
        engine: the simulation engine the mutations are scheduled on.
        channels: the duplex channels, in model channel-index order.
        plan: the fault timeline to apply.

    Call :meth:`arm` once, before running the engine past the plan's first
    event.  Every applied event is appended to :attr:`log` as an
    ``(applied_at, event)`` pair, giving reports a causal trace from
    injected fault to observed degradation.
    """

    KIND = "fault"

    def _apply(self, event: FaultEvent) -> None:
        self._record(event)
        action = event.action
        params = event.params
        for link in self.targets(event, self.links):
            if action in ("link_down", "partition"):
                link.link_down()
            elif action in ("link_up", "heal"):
                link.link_up()
            elif action == "set_loss":
                link.set_loss(params["loss"])
            elif action == "set_delay":
                link.set_delay(params["delay"])
            elif action == "set_jitter":
                link.set_jitter(params["jitter"])
            elif action == "set_rate":
                if "byte_rate" in params:
                    link.set_rate(params["byte_rate"])
                else:
                    link.set_rate(link.byte_rate * params["scale"])
            elif action == "burst_start":
                link.set_loss_model(_burst_model(params))
            elif action == "burst_stop":
                link.set_loss_model(None)


# -- canonical scenarios ---------------------------------------------------------
#
# The five named scenarios every robustness experiment (and bench_faults)
# measures against.  Times are in simulator unit times; callers pick start
# and stop so the faults land inside their measurement window.


def scenario_flap(
    start: float, stop: float, channel: int = 0, period: float = 4.0, down_for: float = 2.0
) -> FaultPlan:
    """One channel flaps: down ``down_for`` out of every ``period``."""
    return FaultPlan().flap(channel, period, down_for, start, stop)


def scenario_burst_loss(
    start: float,
    stop: float,
    channel: int = 0,
    p_bad: float = 0.05,
    p_good: float = 0.25,
    loss_bad: float = 0.9,
) -> FaultPlan:
    """One channel enters a Gilbert-Elliott burst-loss regime, then recovers."""
    return FaultPlan().burst(start, p_bad, p_good, 0.0, loss_bad, channel).end_burst(stop, channel)


def scenario_delay_spike(
    start: float,
    stop: float,
    channel: int = 0,
    delay: float = 5.0,
    baseline: float = 0.0,
) -> FaultPlan:
    """One channel's propagation delay spikes to ``delay``, then returns to ``baseline``."""
    return FaultPlan().set_delay(start, delay, channel).set_delay(stop, baseline, channel)


def scenario_rate_cut(
    start: float, stop: float, channel: int = 0, scale: float = 0.1
) -> FaultPlan:
    """One channel's rate is cut to ``scale`` of its value, then restored."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return FaultPlan().set_rate(start, scale=scale, channel=channel).set_rate(
        stop, scale=1.0 / scale, channel=channel
    )


def scenario_partition_heal(start: float, stop: float, channel: Optional[int] = None) -> FaultPlan:
    """Every channel (or one) goes down at ``start`` and heals at ``stop``."""
    return FaultPlan().partition(start, channel).heal(stop, channel)


#: Name -> factory for the canonical scenarios; each factory takes
#: ``(start, stop, **overrides)`` and returns a :class:`FaultPlan`.
CANONICAL_SCENARIOS: Dict[str, Callable[..., FaultPlan]] = {
    "flap": scenario_flap,
    "burst": scenario_burst_loss,
    "delay_spike": scenario_delay_spike,
    "rate_cut": scenario_rate_cut,
    "partition_heal": scenario_partition_heal,
}


def canonical_plan(name: str, start: float, stop: float, **overrides) -> FaultPlan:
    """Build one of the canonical scenarios by name."""
    return build_scenario(CANONICAL_SCENARIOS, "scenario", name, start, stop, **overrides)
