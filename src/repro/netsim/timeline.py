"""The timeline chassis shared by fault injection and the active adversary.

The paper holds every channel's (z_i, l_i, d_i, r_i) fixed for a whole
run; two layers change them mid-run as *data*: benign faults
(:mod:`repro.netsim.faults`) and attacks (:mod:`repro.adversary.active`).
Both are timelines of timed events aimed at one channel (or every channel)
and one or both duplex directions, and this module holds everything the
two kinds share:

* :class:`TimelineEvent` -- one event: the shape checks, the parameter-key
  check and the JSON spec form;
* :class:`Timeline` -- an ordered collection of events with the JSON spec
  round-trip;
* :class:`TimelineInjector` -- arms a timeline on the engine once, logs and
  traces every applied event, and resolves channel/direction targets.

A kind subclasses all three and keeps only what is its own: the action ->
parameter table and value checks, the fluent builders, and ``_apply``.

Every check runs when an event is built (or, for channel bounds, when an
injector is created), so a bad plan fails before the run starts -- never
mid-run, and never on the engine's per-event path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.engine import Engine
from repro.netsim.link import DuplexChannel

#: Which direction(s) of a duplex channel an event touches.
DIRECTIONS = ("fwd", "rev", "both")

#: Direction -> offsets into a channel's (forward, reverse) link pair.
_OFFSETS = {"fwd": (0,), "rev": (1,), "both": (0, 1)}

#: The integer and real number types an event accepts (``bool`` excluded).
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _is_finite_real(value: Any) -> bool:
    return isinstance(value, _REALS) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class TimelineEvent:
    """One timed action applied to one channel (or all of them).

    Attributes:
        time: absolute simulated time the action fires.
        action: a key of the kind's :attr:`PARAM_KEYS` table.
        channel: model channel index, or ``None`` for every channel.
        direction: "fwd", "rev" or "both" duplex directions.
        params: action parameters; each must be a key of the action's
            :attr:`PARAM_KEYS` entry.

    A kind sets :attr:`KIND` (its name in error texts), :attr:`PARAM_KEYS`
    and :attr:`TEXT_PARAMS`, and checks parameter values in
    :meth:`_check_params`.
    """

    time: float
    action: str
    channel: Optional[int] = None
    direction: str = "both"
    params: Dict[str, Any] = field(default_factory=dict)

    KIND = "timeline"
    #: Action -> allowed parameter keys, in the kind's action order.
    PARAM_KEYS = {}
    #: Parameters that are not numbers; every other one must be a finite
    #: real number (never a bool or a string).
    TEXT_PARAMS = ()

    def __post_init__(self) -> None:
        if not _is_finite_real(self.time):
            raise ValueError(f"{self.KIND} time must be a finite number, got {self.time!r}")
        if self.time < 0:
            raise ValueError(f"{self.KIND} time must be nonnegative, got {self.time}")
        if not isinstance(self.action, str) or self.action not in self.PARAM_KEYS:
            raise ValueError(
                f"unknown {self.KIND} action {self.action!r}; "
                f"expected one of {tuple(self.PARAM_KEYS)}"
            )
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; expected one of {DIRECTIONS}"
            )
        if self.channel is not None:
            if isinstance(self.channel, bool) or not isinstance(self.channel, _INTEGERS):
                raise ValueError(f"channel index must be an integer, got {self.channel!r}")
            if self.channel < 0:
                raise ValueError(f"channel index must be nonnegative, got {self.channel}")
        allowed = self.PARAM_KEYS[self.action]
        unknown = set(self.params) - set(allowed)
        if unknown:
            raise ValueError(
                f"{self.action} does not take parameters {sorted(unknown)}; "
                f"allowed: {list(allowed)}"
            )
        for key, value in self.params.items():
            if key not in self.TEXT_PARAMS and not _is_finite_real(value):
                raise ValueError(f"{self.action} {key} must be a finite number, got {value!r}")
        self._check_params()

    def _check_params(self) -> None:
        """Kind-specific checks of the action's parameter values."""

    def to_spec(self) -> dict:
        """The JSON-friendly dict form (inverse of :meth:`Timeline.from_spec`)."""
        spec: dict = {"time": self.time, "action": self.action}
        if self.channel is not None:
            spec["channel"] = self.channel
        if self.direction != "both":
            spec["direction"] = self.direction
        spec.update(self.params)
        return spec


class Timeline:
    """An ordered collection of events; pure data until an injector arms it.

    A kind sets :attr:`EVENT` to its event class and adds fluent builders
    on top of :meth:`add`.
    """

    EVENT = TimelineEvent

    def __init__(self, events: Optional[Sequence[TimelineEvent]] = None):
        self.events: List[TimelineEvent] = list(events or [])

    def add(self, event: TimelineEvent):
        """Append one event (kept in insertion order; sorted when armed)."""
        self.events.append(event)
        return self

    # -- spec (de)serialisation -------------------------------------------------

    @classmethod
    def from_spec(cls, spec: Sequence[dict]):
        """Build a plan from a list of dicts (``time``/``action``/``channel``/
        ``direction`` keys; every other key becomes an action parameter).

        A malformed entry raises ``ValueError`` naming its index.
        """
        kind = cls.EVENT.KIND
        if not isinstance(spec, (list, tuple)):
            raise ValueError(
                f"a {kind} plan spec must be a list of event objects, "
                f"got {type(spec).__name__}"
            )
        events = []
        for index, entry in enumerate(spec):
            if not isinstance(entry, dict):
                raise ValueError(f"{kind} plan entry {index} must be an object, got {entry!r}")
            for key in ("time", "action"):
                if key not in entry:
                    raise ValueError(f"{kind} plan entry {index} is missing {key!r}")
            params = dict(entry)
            time = params.pop("time")
            action = params.pop("action")
            channel = params.pop("channel", None)
            direction = params.pop("direction", "both")
            try:
                events.append(cls.EVENT(time, action, channel, direction, params))
            except ValueError as exc:
                raise ValueError(f"{kind} plan entry {index}: {exc}") from None
        return cls(events)

    @classmethod
    def from_json(cls, text: str):
        """Parse the JSON form of :meth:`to_spec`."""
        return cls.from_spec(json.loads(text))

    def to_spec(self) -> List[dict]:
        """The JSON-friendly list-of-dicts form."""
        return [event.to_spec() for event in self.events]

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), indent=2)

    # -- introspection ----------------------------------------------------------

    def sorted_events(self) -> List[TimelineEvent]:
        """Events in firing order (stable: ties keep insertion order)."""
        return sorted(self.events, key=lambda e: e.time)

    def end_time(self) -> float:
        """Time of the last event (0.0 for an empty plan)."""
        return max((e.time for e in self.events), default=0.0)

    def has_action(self, *actions: str) -> bool:
        """Whether the plan contains any of the given actions."""
        wanted = set(actions)
        return any(event.action in wanted for event in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TimelineEvent]:
        return iter(self.events)


class TimelineInjector:
    """Applies a :class:`Timeline` to a set of duplex channels.

    Args:
        engine: the simulation engine the events are scheduled on.
        channels: the duplex channels, in model channel-index order.
        plan: the timeline to apply.

    Call :meth:`arm` once, before running the engine past the plan's first
    event.  Every applied event is appended to :attr:`log` as an
    ``(applied_at, event)`` pair, giving reports a causal trace from the
    injected event to the observed damage.

    A kind sets :attr:`KIND` and defines ``_apply(event)`` on its own class
    (its qualname labels the engine's dispatch counts); ``_apply`` starts
    with :meth:`_record`.
    """

    KIND = "timeline"

    def __init__(self, engine: Engine, channels: Sequence[DuplexChannel], plan: Timeline):
        self.engine = engine
        self.duplex = list(channels)
        #: Every link, laid out ch0.fwd, ch0.rev, ch1.fwd, ...
        self.links = [link for duplex in self.duplex for link in (duplex.forward, duplex.reverse)]
        self.plan = plan
        self.log: List[Tuple[float, TimelineEvent]] = []
        #: Structured tracer attached by :func:`repro.obs.instrument.instrument_timeline`;
        #: when set, every applied event also emits a ``<kind>_applied`` trace.
        self.tracer = None
        self._armed = False
        for event in plan:
            if event.channel is not None and event.channel >= len(self.duplex):
                raise ValueError(
                    f"{self.KIND} event targets channel {event.channel} but only "
                    f"{len(self.duplex)} channels exist"
                )

    def arm(self):
        """Schedule every plan event on the engine (once)."""
        if self._armed:
            raise RuntimeError(f"{self.KIND} plan already armed")
        self._armed = True
        self._on_arm()
        for event in self.plan.sorted_events():
            self.engine.schedule_at(max(event.time, self.engine.now), self._apply, event)
        return self

    def _on_arm(self) -> None:
        """Hook run once by :meth:`arm` before any event is scheduled."""

    # -- application ------------------------------------------------------------

    def _apply(self, event: TimelineEvent) -> None:
        raise NotImplementedError

    def _record(self, event: TimelineEvent) -> None:
        """Log (and trace) one applied event."""
        self.log.append((self.engine.now, event))
        if self.tracer is not None:
            self.tracer.event(
                f"{self.KIND}_applied",
                action=event.action,
                channel=event.channel,
                direction=event.direction,
            )

    def channels_of(self, event: TimelineEvent) -> Sequence[int]:
        """The channel indices an event touches (every channel for ``None``)."""
        return range(len(self.duplex)) if event.channel is None else (event.channel,)

    @staticmethod
    def slots(channels: Sequence[int], direction: str) -> List[int]:
        """Indices into :attr:`links` for ``channels`` in ``direction``,
        in (channel, fwd-before-rev) order."""
        return [2 * channel + offset for channel in channels for offset in _OFFSETS[direction]]

    def targets(self, event: TimelineEvent, per_link: Sequence) -> list:
        """The entries of ``per_link`` (laid out like :attr:`links`) an event touches."""
        return [per_link[slot] for slot in self.slots(self.channels_of(event), event.direction)]

    # -- reporting --------------------------------------------------------------

    def summary(self) -> dict:
        """Applied-event counts per action, plus first/last firing times."""
        counts: Dict[str, int] = {}
        for _, event in self.log:
            counts[event.action] = counts.get(event.action, 0) + 1
        return {
            "applied": len(self.log),
            "by_action": counts,
            "first_at": self.log[0][0] if self.log else None,
            "last_at": self.log[-1][0] if self.log else None,
        }


def build_scenario(
    catalogue: Dict[str, Callable[..., Timeline]],
    label: str,
    name: str,
    start: float,
    stop: float,
    **overrides,
) -> Timeline:
    """Build the scenario ``name`` of a canonical ``catalogue``.

    ``label`` names the catalogue in the error for an unknown name.
    """
    try:
        factory = catalogue[name]
    except KeyError:
        raise ValueError(
            f"unknown {label} {name!r}; expected one of {sorted(catalogue)}"
        ) from None
    return factory(start, stop, **overrides)
