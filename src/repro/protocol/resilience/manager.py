"""The resilience conductor: detection, quarantine, failover, repair.

One :class:`ResilienceManager` protects one traffic direction of a
:class:`~repro.protocol.remicss.PointToPointNetwork` node pair (the
iperf-style workloads send A -> B).  It owns all timers and I/O so the
state machines stay pure:

* a periodic **review** reads per-channel link-counter deltas (the
  simulator's stand-in for receiver feedback), feeds the
  :class:`~repro.protocol.resilience.health.HealthMonitor`, and drives
  each channel's :class:`~repro.protocol.resilience.quarantine.ChannelGuard`;
* quarantine changes are pushed into the
  :class:`~repro.protocol.resilience.failover.FailoverController`;
* quarantined channels are **probed** on engine timers with exponential
  backoff; probe acks reinstate them and restore the optimal plan;
* both nodes' inbound ports are wrapped so control packets
  (PROBE/PROBE_ACK/NACK) are dispatched here while share traffic flows on
  to the reassembly buffers untouched;
* the receiver's repair hook turns timeout evictions with
  ``1 <= received < k`` shares into NACKs, and the sender's
  :class:`~repro.protocol.resilience.repair.RepairBuffer` turns NACKs
  into bounded retransmissions on healthy channels.

Determinism: every timer runs on the simulation engine, the only
randomness is the named ``resilience.repair`` jitter stream, and all
iteration is over index-ordered lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.planner import Requirements
from repro.netsim.packet import Datagram
from repro.netsim.rng import RngRegistry
from repro.protocol.receiver import _Entry
from repro.protocol.remicss import PointToPointNetwork, RemicssNode
from repro.protocol.resilience.config import (
    REPAIR_RETRY_BUDGET,
    REPAIR_WINDOW,
    REVIEW_PERIOD,
)
from repro.protocol.resilience.failover import FailoverController
from repro.protocol.resilience.health import HealthMonitor
from repro.protocol.resilience.quarantine import ChannelGuard, ChannelState, Transition
from repro.protocol.resilience.repair import RepairBuffer, RepairJob
from repro.protocol.wire import (
    CTRL_NACK,
    CTRL_PROBE,
    CTRL_PROBE_ACK,
    WireFormatError,
    decode_control,
    encode_nack,
    encode_probe,
    encode_probe_ack,
)

#: Gauge ordinal exported per channel (docs/OBSERVABILITY.md).
STATE_ORDINALS = {
    ChannelState.HEALTHY: 0,
    ChannelState.SUSPECT: 1,
    ChannelState.QUARANTINED: 2,
    ChannelState.PROBING: 3,
}


@dataclass
class ResilienceStats:
    """Counters kept by the resilience layer (exported via repro.obs)."""

    quarantines: int = 0
    reinstatements: int = 0
    failovers: int = 0
    restores: int = 0
    degraded_entries: int = 0
    probes_sent: int = 0
    probe_acks_sent: int = 0
    probe_acks_received: int = 0
    nacks_sent: int = 0
    nacks_received: int = 0
    repair_shares_sent: int = 0
    repair_shares_dropped: int = 0
    control_decode_errors: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class ResilienceManager:
    """Runs the closed resilience loop for the A -> B direction.

    Args:
        network: the point-to-point testbed network.
        node_tx: the sending node (A; its sender is protected).
        node_rx: the receiving node (B; its reassembly buffer NACKs).
        registry: named seeded streams (uses ``resilience.repair``).
        requirements: the deployment's bounds; enables LP failover.
    """

    def __init__(
        self,
        network: PointToPointNetwork,
        node_tx: RemicssNode,
        node_rx: RemicssNode,
        registry: RngRegistry,
        requirements: Optional[Requirements] = None,
    ):
        self.network = network
        self.engine = network.engine
        self.node_tx = node_tx
        self.node_rx = node_rx
        self.stats = ResilienceStats()

        self._tx_ports = list(node_tx.sender.ports)
        self._rx_ctrl_ports = list(node_rx.sender.ports)
        n = len(self._tx_ports)
        self.health = HealthMonitor(n, now=self.engine.now)
        self.guards: List[ChannelGuard] = [ChannelGuard(i) for i in range(n)]
        self.failover = FailoverController(
            node_tx,
            network.channels,
            registry.stream("resilience.failover"),
            requirements=requirements,
        )
        self.repair_buffer = RepairBuffer(registry.stream("resilience.repair"))
        node_tx.sender.on_transmit = self.repair_buffer.remember
        node_rx.receiver.repair_policy = self._repair_policy

        # Interpose on both inbound directions so control packets are
        # dispatched here; share datagrams flow through untouched.
        for port in network.ports_a_in:
            port.on_receive(self._recv_at_sender)
        for port in network.ports_b_in:
            port.on_receive(self._recv_at_receiver)

        self._last_serialized = [0] * n
        self._last_loss_drops = [0] * n
        self._last_delivered = [0] * n
        #: Per-channel MAC-failure counts at the previous review (auth
        #: armed); deltas feed HealthMonitor suspicion like loss does.
        self._last_auth_fails = [0] * n
        self._review_timer = self.engine.schedule(REVIEW_PERIOD, self._review)
        network.armed.append(self)

    # -- public surface -----------------------------------------------------------

    @property
    def quarantined(self) -> "frozenset[int]":
        """Channels currently excluded from the share schedule."""
        return frozenset(
            i for i, guard in enumerate(self.guards) if guard.state.excluded
        )

    def transitions(self) -> List[Transition]:
        """All state transitions so far, in time order."""
        merged = [t for guard in self.guards for t in guard.transitions]
        merged.sort(key=lambda t: (t.time, t.channel))
        return merged

    def stop(self) -> None:
        """Cancel the review timer (probe timers die with their guards)."""
        if self._review_timer is not None:
            self._review_timer.cancel()
            self._review_timer = None

    def summary(self) -> dict:
        """JSON-safe run summary for results and benchmarks."""
        return {
            **self.stats.as_dict(),
            "channel_states": [guard.state.value for guard in self.guards],
            "transitions": [
                {
                    "time": t.time,
                    "channel": t.channel,
                    "source": t.source.value,
                    "target": t.target.value,
                    "reason": t.reason,
                }
                for t in self.transitions()
            ],
            "failover_modes": [record.mode for record in self.failover.records],
            "degraded": self.failover.degraded,
        }

    # -- the review loop ----------------------------------------------------------

    def _review(self) -> None:
        now = self.engine.now
        changed = False
        auth_fails = self.node_rx.receiver.auth_fail_by_channel
        for i, port in enumerate(self._tx_ports):
            stats = port.link.stats
            serialized_delta = stats.serialized - self._last_serialized[i]
            loss_delta = (
                stats.loss_drops + stats.down_losses
            ) - self._last_loss_drops[i]
            delivered_delta = stats.delivered - self._last_delivered[i]
            tainted_delta = auth_fails.get(i, 0) - self._last_auth_fails[i]
            self._last_serialized[i] = stats.serialized
            self._last_loss_drops[i] = stats.loss_drops + stats.down_losses
            self._last_delivered[i] = stats.delivered
            self._last_auth_fails[i] = auth_fails.get(i, 0)
            sample = self.health.observe(
                now, i, serialized_delta, loss_delta, delivered_delta,
                blocked=not port.writable(),
                tainted_delta=tainted_delta,
            )
            transition = self.guards[i].review(now, sample)
            if transition is not None and transition.target is ChannelState.QUARANTINED:
                self.stats.quarantines += 1
                changed = True
                self._schedule_probe(i)
        if changed:
            self._refresh_failover()
        self._review_timer = self.engine.schedule(REVIEW_PERIOD, self._review)

    def _refresh_failover(self) -> None:
        record = self.failover.apply(self.engine.now, self.quarantined)
        if record.mode in ("replanned", "masked"):
            self.stats.failovers += 1
        elif record.mode == "restored":
            self.stats.restores += 1
        else:
            self.stats.degraded_entries += 1

    # -- probing ------------------------------------------------------------------

    def _schedule_probe(self, channel: int) -> None:
        guard = self.guards[channel]
        if guard.next_probe_at is not None:
            self.engine.schedule_at(guard.next_probe_at, self._probe, channel)

    def _probe(self, channel: int) -> None:
        guard = self.guards[channel]
        if not guard.state.excluded:
            return  # reinstated while this timer was in flight
        payload = encode_probe(channel, guard.probes_sent)
        datagram = Datagram(
            size=len(payload), payload=payload,
            meta={"ctrl": CTRL_PROBE, "channel": channel},
        )
        # Send straight on the link: probing a downed channel is the
        # point, and the failed attempt is accounted as a down drop.
        self._tx_ports[channel].send(datagram)
        self.stats.probes_sent += 1
        guard.on_probe_sent(self.engine.now)
        self._schedule_probe(channel)

    # -- control dispatch ---------------------------------------------------------

    def _recv_at_receiver(self, datagram: Datagram) -> None:
        """B's inbound path: answer probes, pass shares to reassembly."""
        if "ctrl" not in datagram.meta:
            self.node_rx.receiver.handle_datagram(datagram)
            return
        message = self._decode(datagram)
        if message is None:
            return
        if message.kind == CTRL_PROBE:
            reply = encode_probe_ack(message.channel, message.nonce)
            port = self._rx_ctrl_ports[message.channel]
            if port.send(Datagram(
                size=len(reply), payload=reply,
                meta={"ctrl": CTRL_PROBE_ACK, "channel": message.channel},
            )):
                self.stats.probe_acks_sent += 1

    def _recv_at_sender(self, datagram: Datagram) -> None:
        """A's inbound path: probe acks and NACKs; B -> A shares flow on."""
        if "ctrl" not in datagram.meta:
            self.node_tx.receiver.handle_datagram(datagram)
            return
        message = self._decode(datagram)
        if message is None:
            return
        if message.kind == CTRL_PROBE_ACK:
            self.stats.probe_acks_received += 1
            self._on_probe_ack(message.channel)
        elif message.kind == CTRL_NACK:
            self.stats.nacks_received += 1
            self._on_nack(message.flow, message.seq, message.have)

    def _decode(self, datagram: Datagram):
        """The frame's control message, or None if it is malformed.

        A channel index past this pair's channels counts as malformed:
        both handlers index per-channel state with it.
        """
        try:
            message = decode_control(datagram.payload or b"")
        except WireFormatError:
            message = None
        if message is None or message.channel >= len(self.guards):
            self.stats.control_decode_errors += 1
            return None
        return message

    def _on_probe_ack(self, channel: int) -> None:
        guard = self.guards[channel]
        transition = guard.on_probe_ack(self.engine.now)
        if transition is not None:
            self.stats.reinstatements += 1
            self.health.reset(channel, self.engine.now)
            self._refresh_failover()

    # -- repair -------------------------------------------------------------------

    def _repair_policy(self, entry: _Entry) -> Optional[float]:
        """Receiver-side hook: NACK an eviction-bound partial symbol.

        Returns the extra reassembly time to grant, or None to let the
        eviction proceed.  Requires ``1 <= received < k`` -- a symbol with
        zero shares cannot be identified (its parameters are unknown to
        the receiver), and one at or past k is completing anyway.  The
        NACK carries the entry's flow id, so a repair can only ever be
        answered with that flow's own shares.
        """
        if entry.repair_rounds >= REPAIR_RETRY_BUDGET:
            return None
        held = len(entry.shares)
        if not 1 <= held < entry.k:
            return None
        payload = encode_nack(
            entry.seq, entry.k, entry.m, sorted(entry.shares), flow=entry.flow
        )
        port = self._first_writable(self._rx_ctrl_ports)
        if port is None:
            return None
        if not port.send(Datagram(
            size=len(payload), payload=payload, meta={"ctrl": CTRL_NACK},
        )):
            return None
        self.stats.nacks_sent += 1
        entry.repair_rounds += 1
        return REPAIR_WINDOW

    def _on_nack(self, flow: int, seq: int, have) -> None:
        job = self.repair_buffer.handle_nack(self.engine.now, flow, seq, have)
        if job is not None:
            self.engine.schedule_at(job.send_at, self._send_repair, job)

    def _send_repair(self, job: RepairJob) -> None:
        """Retransmit a job's shares on healthy, writable channels."""
        excluded = self.quarantined
        ready = [
            port for port in self._tx_ports
            if port.index not in excluded and port.writable()
        ]
        ready.sort(key=lambda port: (-port.headroom, port.index))
        sent = 0
        for (index, share), port in zip(job.shares, ready):
            # Repairs are re-tagged per flow: the retransmitted share
            # occupies the same (flow, seq, index) slot, so its tag is
            # recomputed with that flow's key -- a repair is as
            # verifiable as the original transmission.
            datagram = self.node_tx.sender.frame_share(
                job.flow, job.seq, job.k, job.m, index, share,
                job.offered_at, port.index,
            )
            datagram.meta["repair_round"] = job.round
            if port.send(datagram):
                sent += 1
        self.stats.repair_shares_sent += sent
        self.stats.repair_shares_dropped += len(job.shares) - sent

    @staticmethod
    def _first_writable(ports):
        for port in ports:
            if port.writable():
                return port
        return None
