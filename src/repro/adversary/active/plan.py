"""Declarative, deterministic *active-adversary* attack timelines.

The passive eavesdropper of :mod:`repro.adversary.eavesdropper` only
reads; the paper's robustness machinery (robust reconstruction, channel
quarantine, repair) exists because real multichannel adversaries also
*write*: they corrupt shares in flight, inject forged shares with valid
wire framing, capture and replay previously observed packets, delay and
reorder traffic, and selectively partition channels.  This module models
such behaviour as data, on the same timeline chassis
(:mod:`repro.netsim.timeline`) that :mod:`repro.netsim.faults` uses for
benign failures:

* an :class:`AttackEvent` is one timed mutation of the adversary's
  posture on one (or every) channel -- start/stop a corruption regime,
  a forgery campaign, a replay campaign, a hold-and-reorder window, a
  jam, or one of the *strategic* attackers (the budget-bounded adaptive
  low-risk partitioner and the targeted symbol corruptor);
* an :class:`AttackPlan` is an ordered timeline of events, built fluently
  or parsed from a JSON spec (:meth:`AttackPlan.from_json`; the CLI's
  ``repro attack`` takes no plan file, it runs the canonical scenarios);
* an :class:`~repro.adversary.active.engine.AttackInjector` schedules the
  plan on the event engine and applies each event through per-link attack
  state, recording every applied event so reports can attribute damage.

Determinism: event timing comes solely from the engine and every random
draw (corruption positions, forged payloads, replay picks) flows through
a named per-link rng stream, so two runs with the same root seed produce
byte-identical traces.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.netsim.timeline import DIRECTIONS as DIRECTIONS
from repro.netsim.timeline import Timeline, TimelineEvent

#: Corruption modes: flip one share-body byte, rewrite the body with
#: attacker randomness, or zero it.  All three preserve the wire framing,
#: so the receiver decodes a *valid but wrong* share and only robust
#: reconstruction can catch it.
CORRUPT_MODES = ("flip", "rewrite", "zero")

#: Forgery modes: "tracking" forges shares for the symbol most recently
#: observed in flight (colliding with live reassembly groups); "blind"
#: forges shares for near-future sequence numbers (flooding the table).
FORGE_MODES = ("tracking", "blind")

#: Required / allowed parameter keys per action.
_PARAM_KEYS: Dict[str, "tuple[str, ...]"] = {
    "corrupt_start": ("rate", "mode"),
    "corrupt_stop": (),
    "forge_start": ("rate", "mode"),
    "forge_stop": (),
    "replay_start": ("rate", "tamper"),
    "replay_stop": (),
    "hold_start": ("hold", "batch"),
    "hold_stop": (),
    "jam": (),
    "unjam": (),
    "adaptive_start": ("budget", "period", "width", "jam_for"),
    "adaptive_stop": (),
    "target_start": ("period", "width"),
    "target_stop": (),
}

#: Every recognised attack action.
ACTIONS = tuple(_PARAM_KEYS)

#: The strategic attackers pick their own channels.
_STRATEGIC = ("adaptive_start", "adaptive_stop", "target_start", "target_stop")


def _require_positive(params: Dict[str, Any], action: str, key: str) -> float:
    if key not in params:
        raise ValueError(f"{action} needs a {key!r} parameter")
    value = params[key]
    if value <= 0:
        raise ValueError(f"{action} {key} must be positive, got {value!r}")
    return float(value)


def _require_positive_int(params: Dict[str, Any], action: str, key: str) -> int:
    value = _require_positive(params, action, key)
    if value != int(value):
        raise ValueError(f"{action} {key} must be an integer, got {value!r}")
    return int(value)


class AttackEvent(TimelineEvent):
    """One timed attack action applied to one channel (or all of them).

    Attributes:
        time: absolute simulated time the action fires.
        action: one of :data:`ACTIONS`.
        channel: model channel index, or ``None`` for every channel (the
            strategic actions ``adaptive_*``/``target_*`` always act on
            every channel and narrow themselves via ``width``).
        direction: "fwd", "rev" or "both" duplex directions.
        params: action parameters (see :data:`_PARAM_KEYS`); e.g.
            ``{"rate": 0.5, "mode": "flip"}`` for ``corrupt_start`` or
            ``{"budget": 8, "period": 4.0, "width": 2, "jam_for": 2.0}``
            for ``adaptive_start``.
    """

    KIND = "attack"
    PARAM_KEYS = _PARAM_KEYS
    TEXT_PARAMS = ("mode", "tamper")

    def _check_params(self) -> None:
        if self.action in _STRATEGIC and self.channel is not None:
            raise ValueError(
                f"{self.action} picks its own channels; it does not take a channel, "
                f"got {self.channel}"
            )
        if self.action == "corrupt_start":
            if "rate" not in self.params:
                raise ValueError("corrupt_start needs a 'rate' parameter")
            rate = self.params["rate"]
            if not 0.0 < rate <= 1.0:
                raise ValueError(f"corrupt rate must be in (0, 1], got {rate}")
            mode = self.params.get("mode", "flip")
            if mode not in CORRUPT_MODES:
                raise ValueError(
                    f"unknown corrupt mode {mode!r}; expected one of {CORRUPT_MODES}"
                )
        if self.action == "forge_start":
            _require_positive(self.params, self.action, "rate")
            mode = self.params.get("mode", "tracking")
            if mode not in FORGE_MODES:
                raise ValueError(
                    f"unknown forge mode {mode!r}; expected one of {FORGE_MODES}"
                )
        if self.action == "replay_start":
            _require_positive(self.params, self.action, "rate")
            tamper = self.params.get("tamper", False)
            if not isinstance(tamper, bool):
                raise ValueError(f"replay tamper must be a bool, got {tamper!r}")
        if self.action == "hold_start":
            _require_positive(self.params, self.action, "hold")
            if "batch" in self.params:
                _require_positive_int(self.params, self.action, "batch")
        if self.action == "adaptive_start":
            _require_positive_int(self.params, self.action, "budget")
            _require_positive(self.params, self.action, "period")
            _require_positive_int(self.params, self.action, "width")
            _require_positive(self.params, self.action, "jam_for")
        if self.action == "target_start":
            _require_positive_int(self.params, self.action, "period")
            _require_positive_int(self.params, self.action, "width")


class AttackPlan(Timeline):
    """A seeded-run attack timeline: an ordered collection of attack events.

    Build fluently (every builder returns ``self``)::

        plan = (AttackPlan()
                .corrupt(5.0, rate=0.5, mode="flip", channel=0)
                .end_corrupt(15.0, channel=0)
                .replay(10.0, rate=4.0, tamper=True)
                .end_replay(20.0)
                .adaptive(5.0, budget=8, period=4.0, width=2, jam_for=2.0)
                .end_adaptive(25.0))

    or parse the equivalent JSON spec with :meth:`from_json` /
    :meth:`from_spec`.  The plan itself is pure data; nothing happens
    until an :class:`~repro.adversary.active.engine.AttackInjector` arms
    it on an engine.
    """

    EVENT = AttackEvent

    def corrupt(
        self,
        time: float,
        rate: float,
        mode: str = "flip",
        channel: Optional[int] = None,
        direction: str = "fwd",
    ) -> "AttackPlan":
        """Start corrupting delivered share bodies with probability ``rate``."""
        return self.add(
            AttackEvent(time, "corrupt_start", channel, direction, {"rate": rate, "mode": mode})
        )

    def end_corrupt(
        self, time: float, channel: Optional[int] = None, direction: str = "fwd"
    ) -> "AttackPlan":
        """Stop the corruption regime."""
        return self.add(AttackEvent(time, "corrupt_stop", channel, direction))

    def forge(
        self,
        time: float,
        rate: float,
        mode: str = "tracking",
        channel: Optional[int] = None,
        direction: str = "fwd",
    ) -> "AttackPlan":
        """Start injecting ``rate`` forged shares per unit time."""
        return self.add(
            AttackEvent(time, "forge_start", channel, direction, {"rate": rate, "mode": mode})
        )

    def end_forge(
        self, time: float, channel: Optional[int] = None, direction: str = "fwd"
    ) -> "AttackPlan":
        """Stop the forgery campaign."""
        return self.add(AttackEvent(time, "forge_stop", channel, direction))

    def replay(
        self,
        time: float,
        rate: float,
        tamper: bool = False,
        channel: Optional[int] = None,
        direction: str = "both",
    ) -> "AttackPlan":
        """Start re-injecting ``rate`` captured packets per unit time.

        With ``tamper`` each replayed copy has one byte flipped, so a
        replay colliding with a live reassembly slot carries a mismatched
        payload (the receiver's replay defense counts these).
        """
        return self.add(
            AttackEvent(time, "replay_start", channel, direction, {"rate": rate, "tamper": tamper})
        )

    def end_replay(
        self, time: float, channel: Optional[int] = None, direction: str = "both"
    ) -> "AttackPlan":
        """Stop the replay campaign."""
        return self.add(AttackEvent(time, "replay_stop", channel, direction))

    def hold(
        self,
        time: float,
        hold: float,
        batch: int = 4,
        channel: Optional[int] = None,
        direction: str = "fwd",
    ) -> "AttackPlan":
        """Start holding delivered packets for ``hold``, releasing batches reversed.

        Models an on-path adversary who delays and reorders traffic
        without dropping it.
        """
        return self.add(
            AttackEvent(time, "hold_start", channel, direction, {"hold": hold, "batch": batch})
        )

    def end_hold(
        self, time: float, channel: Optional[int] = None, direction: str = "fwd"
    ) -> "AttackPlan":
        """Stop holding; any packets still held are flushed (reversed) at once."""
        return self.add(AttackEvent(time, "hold_stop", channel, direction))

    def jam(
        self, time: float, channel: Optional[int] = None, direction: str = "both"
    ) -> "AttackPlan":
        """Take a channel down, attributed to the adversary."""
        return self.add(AttackEvent(time, "jam", channel, direction))

    def unjam(
        self, time: float, channel: Optional[int] = None, direction: str = "both"
    ) -> "AttackPlan":
        """Release a jammed channel."""
        return self.add(AttackEvent(time, "unjam", channel, direction))

    def adaptive(
        self,
        time: float,
        budget: int,
        period: float,
        width: int,
        jam_for: float,
        direction: str = "both",
    ) -> "AttackPlan":
        """Start the budget-bounded adaptive low-risk partitioner.

        Every ``period`` the attacker ranks channels by risk (ascending)
        and jams the ``width`` lowest-risk ones for ``jam_for``, spending
        one budget unit per jam, until ``budget`` is exhausted or
        :meth:`end_adaptive` fires.  Degrading exactly the channels the
        planner trusts most forces the schedule toward riskier channels.
        """
        return self.add(
            AttackEvent(
                time, "adaptive_start", None, direction,
                {"budget": budget, "period": period, "width": width, "jam_for": jam_for},
            )
        )

    def end_adaptive(self, time: float) -> "AttackPlan":
        """Stop the adaptive attacker (scheduled unjams still fire)."""
        return self.add(AttackEvent(time, "adaptive_stop", None))

    def target(
        self,
        time: float,
        period: int,
        width: int,
        direction: str = "fwd",
    ) -> "AttackPlan":
        """Start the targeted corruptor.

        Every ``period``-th distinct symbol observed at delivery is marked
        *targeted*: all of its shares arriving on the ``width``
        lowest-indexed channels are rewritten, concentrating corruption on
        one symbol to overwhelm ``max_correctable_errors``.
        """
        return self.add(
            AttackEvent(time, "target_start", None, direction, {"period": period, "width": width})
        )

    def end_target(self, time: float) -> "AttackPlan":
        """Stop the targeted corruptor."""
        return self.add(AttackEvent(time, "target_stop", None))
