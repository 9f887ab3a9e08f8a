"""The attack injector: applies an :class:`AttackPlan` to live links.

Built on the same chassis as :class:`repro.netsim.faults.FaultInjector`
(:class:`repro.netsim.timeline.TimelineInjector`): :meth:`AttackInjector.arm`
schedules every plan event on the engine; each applied event mutates
per-link attack state (corruption/forgery/replay/hold regimes), jams
links, or starts one of the strategic attackers from
:mod:`repro.adversary.active.strategies`.  Every applied event is logged
as ``(applied_at, event)`` so reports can attribute damage.

The adversary touches the network through exactly two hooks added for it:

* :attr:`repro.netsim.link.Link.attack_tap` -- an on-path read/modify/
  drop position consulted on every delivery (corrupt in place, swallow
  for delayed reordered release);
* :meth:`repro.netsim.link.Link.inject` -- the write position (forged
  shares, replayed captures, released held packets).

Capture happens at the links' existing transmit taps (the same
observation point as the passive eavesdropper: the paper's threat model
observes shares *as they are sent*, so the adversary may capture --
and later replay -- a share the receiver never got).

Determinism: all randomness flows through per-link named rng streams
(``attack.ch<i>.<dir>``), each drawn through a
:class:`~repro.netsim.rng.RandomBytes` built at the link's first draw,
and the periodic forge/replay ticks are engine events, so same-seed runs
replay byte-identically.  Periodic campaigns keep rescheduling until their
``*_stop`` event fires (a generation counter kills stale ticks), which is
why attack runs are driven with ``engine.run_until(horizon)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Deque, List, Optional, Sequence

from repro.netsim.engine import Engine
from repro.netsim.link import DuplexChannel, Link
from repro.netsim.packet import Datagram
from repro.netsim.rng import RandomBytes, RngRegistry
from repro.netsim.timeline import TimelineInjector
from repro.adversary.active.plan import AttackEvent, AttackPlan
from repro.adversary.active.primitives import (
    corrupt_any_packet,
    corrupt_share_packet,
    forge_share_packet,
    is_share,
)
from repro.adversary.active.strategies import AdaptiveAttacker, TargetedCorruptor
from repro.protocol.wire import is_control

#: Default per-link capture ring size (packets); bounds adversary memory
#: exactly like the receiver bounds its reassembly table.
DEFAULT_CAPTURE_LIMIT = 256


@dataclass
class AttackStats:
    """Counters kept by the attack injector (the adversary's own ledger)."""

    shares_corrupted: int = 0
    control_corrupted: int = 0
    shares_forged: int = 0
    packets_replayed: int = 0
    packets_captured: int = 0
    packets_held: int = 0
    packets_released: int = 0
    jams: int = 0
    unjams: int = 0
    adaptive_jams: int = 0
    targeted_symbols: int = 0
    targeted_corruptions: int = 0
    #: Injection attempts that failed because the link was down/unwired.
    injected_dropped: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _LinkAttackState:
    """Per-(channel, direction) attack posture and campaign machinery."""

    def __init__(self, injector: "AttackInjector", channel: int, direction: str, link: Link):
        self.injector = injector
        self.channel = channel
        self.direction = direction
        self.link = link
        # corruption regime
        self.corrupt_rate = 0.0
        self.corrupt_mode = "flip"
        # forgery campaign
        self.forge_rate = 0.0
        self.forge_mode = "tracking"
        self._forge_gen = 0
        # replay campaign
        self.replay_rate = 0.0
        self.replay_tamper = False
        self._replay_gen = 0
        # hold-and-reorder window
        self.holding = False
        self.hold_for = 0.0
        self.hold_batch = 4
        self._held: List[Datagram] = []
        # capture ring, fed by the link's transmit tap
        self.captured: Deque[Datagram] = deque(maxlen=injector.capture_limit)
        self.last_template: Optional[bytes] = None
        self.last_seq: int = 0
        link.watch_transmit(self._capture)
        link.attack_tap = self._tap

    @cached_property
    def rng(self) -> RandomBytes:
        """The link's ``attack.ch<i>.<dir>`` stream, wrapped (and so
        seeded) at its first draw: most attacked links never draw."""
        return RandomBytes(
            self.injector.registry.stream(f"attack.ch{self.channel}.{self.direction}")
        )

    # -- observation -----------------------------------------------------------

    def _capture(self, datagram: Datagram) -> None:
        """Transmit-time capture: remember the datagram for later replay.

        Nothing changes a datagram once it is on the wire, and a replay
        sends a fresh one, so the ring holds the transmitted datagram
        itself rather than a copy.
        """
        self.injector.stats.packets_captured += 1
        self.captured.append(datagram)
        if datagram.payload is not None and is_share(datagram.payload):
            self.last_template = datagram.payload
            seq = datagram.meta.get("seq")
            if seq is not None:
                self.last_seq = seq

    # -- the on-path tap -------------------------------------------------------

    def _tap(self, datagram: Datagram) -> Optional[Datagram]:
        if self.holding:
            self.injector.stats.packets_held += 1
            self._held.append(datagram)
            if len(self._held) >= self.hold_batch:
                batch = self._held
                self._held = []
                self.injector.engine.schedule(self.hold_for, self._release, batch)
            return None
        targeter = self.injector.targeter
        if (
            targeter is not None
            and self.direction == targeter.direction
            and datagram.payload is not None
            and targeter.should_corrupt(self.channel, datagram)
        ):
            mutated = corrupt_share_packet(datagram.payload, self.rng, "rewrite")
            if mutated is not None:
                self.injector.stats.targeted_corruptions += 1
                return self._with_payload(datagram, mutated)
        if self.corrupt_rate > 0.0 and datagram.payload is not None:
            if self.rng.random() < self.corrupt_rate:
                return self._corrupt(datagram)
        return datagram

    def _corrupt(self, datagram: Datagram) -> Datagram:
        payload = datagram.payload
        if is_share(payload):
            mutated = corrupt_share_packet(payload, self.rng, self.corrupt_mode)
            if mutated is not None:
                self.injector.stats.shares_corrupted += 1
                return self._with_payload(datagram, mutated)
        elif is_control(payload):
            mutated = corrupt_any_packet(payload, self.rng)
            if mutated is not None:
                self.injector.stats.control_corrupted += 1
                return self._with_payload(datagram, mutated)
        return datagram

    @staticmethod
    def _with_payload(datagram: Datagram, payload: bytes) -> Datagram:
        return Datagram(
            size=datagram.size,
            payload=payload,
            sent_at=datagram.sent_at,
            meta=datagram.meta,
        )

    # -- hold / release --------------------------------------------------------

    def _release(self, batch: List[Datagram]) -> None:
        """Re-inject a held batch in reverse order (delay + reorder)."""
        for datagram in reversed(batch):
            if self.link.inject(datagram):
                self.injector.stats.packets_released += 1
            else:
                self.injector.stats.injected_dropped += 1

    def flush_held(self) -> None:
        """Release anything still held (fires on ``hold_stop``)."""
        if self._held:
            batch = self._held
            self._held = []
            self._release(batch)

    # -- forgery campaign ------------------------------------------------------

    def start_forge(self, rate: float, mode: str) -> None:
        self.forge_rate = rate
        self.forge_mode = mode
        self._forge_gen += 1
        self.injector.engine.schedule(1.0 / rate, self._forge_tick, self._forge_gen)

    def stop_forge(self) -> None:
        self.forge_rate = 0.0
        self._forge_gen += 1

    def _forge_tick(self, gen: int) -> None:
        if gen != self._forge_gen:
            return
        template = self.last_template
        if template is not None:
            if self.forge_mode == "tracking":
                seq: Optional[int] = None  # forge for the template's own seq
            else:
                seq = self.last_seq + 1 + int(self.rng.integers(1, 64))
            forged = forge_share_packet(template, self.rng, seq=seq)
            if forged is not None:
                datagram = Datagram(
                    size=len(forged),
                    payload=forged,
                    sent_at=self.injector.engine.now,
                    meta={"channel": self.channel, "forged": True},
                )
                if self.link.inject(datagram):
                    self.injector.stats.shares_forged += 1
                else:
                    self.injector.stats.injected_dropped += 1
        self.injector.engine.schedule(1.0 / self.forge_rate, self._forge_tick, gen)

    # -- replay campaign -------------------------------------------------------

    def start_replay(self, rate: float, tamper: bool) -> None:
        self.replay_rate = rate
        self.replay_tamper = tamper
        self._replay_gen += 1
        self.injector.engine.schedule(1.0 / rate, self._replay_tick, self._replay_gen)

    def stop_replay(self) -> None:
        self.replay_rate = 0.0
        self._replay_gen += 1

    def _replay_tick(self, gen: int) -> None:
        if gen != self._replay_gen:
            return
        if self.captured:
            # Bias toward recent captures: old packets' symbols are long
            # closed (a late-share no-op), recent ones can still collide
            # with live reassembly state.
            window = min(len(self.captured), 32)
            pick = self.captured[
                int(self.rng.integers(len(self.captured) - window, len(self.captured)))
            ]
            payload = pick.payload
            if payload is not None and self.replay_tamper:
                # Body-corrupt a replayed share so a collision with a live
                # slot carries a *mismatched* payload (exactly what the
                # receiver's replay defense detects); non-shares get a
                # framing flip instead.
                mutated = (
                    corrupt_share_packet(payload, self.rng, "flip")
                    if is_share(payload)
                    else corrupt_any_packet(payload, self.rng)
                )
                if mutated is not None:
                    payload = mutated
            datagram = Datagram(
                size=pick.size,
                payload=payload,
                sent_at=self.injector.engine.now,
                meta=dict(pick.meta),
            )
            if self.link.inject(datagram):
                self.injector.stats.packets_replayed += 1
            else:
                self.injector.stats.injected_dropped += 1
        self.injector.engine.schedule(1.0 / self.replay_rate, self._replay_tick, gen)


class AttackInjector(TimelineInjector):
    """Applies an :class:`AttackPlan` to a set of duplex channels.

    Args:
        engine: the simulation engine the attack is scheduled on.
        channels: the duplex channels, in model channel-index order.
        plan: the attack timeline to apply.
        registry: rng registry the per-link attack streams are drawn from.
        risks: per-channel compromise risks, in channel order -- the
            ranking the adaptive attacker exploits.  Required when the
            plan contains ``adaptive_start`` events.
        capture_limit: per-link capture ring size for replay.

    Call :meth:`arm` once, before running the engine past the plan's
    first event, and drive the run with ``engine.run_until(horizon)``
    (periodic campaigns reschedule themselves until stopped).
    """

    KIND = "attack"

    def __init__(
        self,
        engine: Engine,
        channels: Sequence[DuplexChannel],
        plan: AttackPlan,
        registry: RngRegistry,
        risks: Optional[Sequence[float]] = None,
        capture_limit: int = DEFAULT_CAPTURE_LIMIT,
    ):
        super().__init__(engine, channels, plan)
        self.registry = registry
        self.risks = list(risks) if risks is not None else None
        self.capture_limit = capture_limit
        self.stats = AttackStats()
        self.adaptive: Optional[AdaptiveAttacker] = None
        self.targeter: Optional[TargetedCorruptor] = None
        for event in plan:
            if event.action == "adaptive_start":
                if self.risks is None:
                    raise ValueError(
                        "the adaptive attacker needs per-channel risks; pass risks="
                    )
                if event.params["width"] > len(self.duplex):
                    raise ValueError(
                        f"adaptive width {event.params['width']} exceeds "
                        f"{len(self.duplex)} channels"
                    )
        if self.risks is not None and len(self.risks) != len(self.duplex):
            raise ValueError(
                f"got {len(self.risks)} risks for {len(self.duplex)} channels"
            )
        # One state per link, laid out like ``links`` and wired at arm() so
        # an unarmed injector leaves the links untouched.
        self._states: List[_LinkAttackState] = []

    def _on_arm(self) -> None:
        """Install the link hooks before any event is scheduled."""
        for index, duplex in enumerate(self.duplex):
            self._states.append(_LinkAttackState(self, index, "fwd", duplex.forward))
            self._states.append(_LinkAttackState(self, index, "rev", duplex.reverse))

    # -- application ------------------------------------------------------------

    def jam_channel(self, channel: int, direction: str = "both") -> None:
        """Down a channel on the adversary's behalf (idempotent per link)."""
        for slot in self.slots((channel,), direction):
            self.links[slot].link_down()
        self.stats.jams += 1

    def unjam_channel(self, channel: int, direction: str = "both") -> None:
        """Release a jammed channel."""
        for slot in self.slots((channel,), direction):
            self.links[slot].link_up()
        self.stats.unjams += 1

    def _apply(self, event: AttackEvent) -> None:
        self._record(event)
        action = event.action
        params = event.params
        if action == "jam":
            for channel in self.channels_of(event):
                self.jam_channel(channel, event.direction)
            return
        if action == "unjam":
            for channel in self.channels_of(event):
                self.unjam_channel(channel, event.direction)
            return
        if action == "adaptive_start":
            self.adaptive = AdaptiveAttacker(
                self,
                budget=params["budget"],
                period=params["period"],
                width=params["width"],
                jam_for=params["jam_for"],
                direction=event.direction,
            )
            self.adaptive.start()
            return
        if action == "adaptive_stop":
            if self.adaptive is not None:
                self.adaptive.stop()
            return
        if action == "target_start":
            self.targeter = TargetedCorruptor(
                self,
                period=params["period"],
                width=params["width"],
                direction="fwd" if event.direction == "both" else event.direction,
            )
            return
        if action == "target_stop":
            self.targeter = None
            return
        for state in self.targets(event, self._states):
            if action == "corrupt_start":
                state.corrupt_rate = params["rate"]
                state.corrupt_mode = params.get("mode", "flip")
            elif action == "corrupt_stop":
                state.corrupt_rate = 0.0
            elif action == "forge_start":
                state.start_forge(params["rate"], params.get("mode", "tracking"))
            elif action == "forge_stop":
                state.stop_forge()
            elif action == "replay_start":
                state.start_replay(params["rate"], params.get("tamper", False))
            elif action == "replay_stop":
                state.stop_replay()
            elif action == "hold_start":
                state.holding = True
                state.hold_for = params["hold"]
                state.hold_batch = params.get("batch", 4)
            elif action == "hold_stop":
                state.holding = False
                state.flush_held()

    def stop(self) -> None:
        """Drop the link states and attackers, which point back here (run teardown)."""
        self._states.clear()
        self.adaptive = self.targeter = None

    # -- reporting --------------------------------------------------------------

    def summary(self) -> dict:
        """Applied-event counts, firing window, and the attack stat ledger."""
        return {**super().summary(), "stats": self.stats.as_dict()}
