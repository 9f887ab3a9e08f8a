"""The ledger's four canonical workloads, driven through public entry points.

Each workload function takes the root seed, a size dict from
:data:`SIZES` and a ``check`` flag, and returns an :class:`Outcome`:
delivery counts, the delivery digest and the correctness counts the
ledger turns into ``error_rate``.  Everything runs in this process with
``shards=1``: no threads, no worker pool.

The batching knobs ``sender_batch_limit``/``batch_reconstruct`` are left
at the entry points' defaults on purpose, so deleting them later needs no
change here.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.adversary.active import CANONICAL_ATTACKS, canonical_attack, run_under_attack
from repro.protocol.config import ProtocolConfig
from repro.workloads.fleet import run_fleet
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import SYMBOL_SIZE, diverse_setup

from ledger_trace import Patcher

#: Testbed schedule: κ = 2 of µ = 3 shares on average (dynamic sampler).
TESTBED_KAPPA = 2.0
TESTBED_MU = 3.0
TESTBED_WARMUP = 5.0

#: Payload bytes per fleet symbol and per attack-harness symbol.
FLEET_SYMBOL_SIZE = 64
ATTACK_SYMBOL_SIZE = 64

#: The attack window opens when the harness warm-up ends.
ATTACK_WARMUP = 4.0

#: Per-workload instance sizes.  ``full`` is the standalone ledger run;
#: ``quick`` is ``--quick``, every warm-up, and each repeat of a
#: ``--workload`` run.
SIZES: Dict[str, Dict[str, dict]] = {
    "testbed_real": {"full": {"duration": 400.0}, "quick": {"duration": 30.0}},
    "fleet_synth": {"full": {"flows": 16384}, "quick": {"flows": 1024}},
    "fleet_auth": {"full": {"flows": 2048}, "quick": {"flows": 192}},
    "attack_auth": {"full": {"duration": 2000.0}, "quick": {"duration": 200.0}},
}


@dataclass
class Outcome:
    """What one workload run delivered, and how much of it was wrong."""

    delivered: int
    transmitted: int
    symbol_size: int
    #: Flows carried: admitted fleet flows, one per attack scenario, one
    #: for the testbed.
    flows: int
    digest: str
    #: Deliveries whose payload differs from what was sent.
    wrong_payloads: int = 0
    #: Flows or runs whose sampled threshold broke the κ floor.
    kappa_violations: int = 0
    #: CPU seconds of the benchmark's own planning call.
    plan_s: float = 0.0

    @property
    def errors(self) -> int:
        return self.wrong_payloads + self.kappa_violations


class _DeliveryRecorder:
    """Digests testbed deliveries; with ``check``, compares payloads too.

    Chains itself in front of every callback registered through
    ``RemicssNode.on_deliver`` and, when checking, remembers every payload
    ``RemicssNode.send`` accepted (the testbed has one sending node, so
    the acceptance order is the sequence number).
    """

    def __init__(self, check: bool) -> None:
        self.check = check
        self.count = 0
        self.wrong = 0
        self.sent: List[Optional[bytes]] = []
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def record(self, seq: int, payload: Optional[bytes], delay: float) -> None:
        self.count += 1
        body = hashlib.sha256(payload).hexdigest() if payload is not None else "-"
        self._digest.update(f"{seq}:{body}:{delay!r}\n".encode())
        if self.check and (seq >= len(self.sent) or self.sent[seq] != payload):
            self.wrong += 1

    def install(self, patcher: Patcher) -> None:
        recorder = self

        def on_deliver_wrapper(original: Callable) -> Callable:
            def on_deliver(node, callback):
                def chained(seq, payload, delay):
                    recorder.record(seq, payload, delay)
                    callback(seq, payload, delay)

                return original(node, chained)

            return on_deliver

        def send_wrapper(original: Callable) -> Callable:
            def send(node, payload=None):
                accepted = original(node, payload)
                if accepted:
                    recorder.sent.append(payload)
                return accepted

            return send

        probes = [("repro.protocol.remicss.RemicssNode.on_deliver", on_deliver_wrapper)]
        if self.check:
            probes.append(("repro.protocol.remicss.RemicssNode.send", send_wrapper))
        for path, wrapper in probes:
            if not patcher.wrap(path, wrapper):
                raise RuntimeError(f"cannot check testbed deliveries: {path} is gone")


def testbed_real(seed: int, size: dict, check: bool = False) -> Outcome:
    """The paper's iperf testbed: Diverse setup, real 1250-byte payloads."""
    started = time.process_time()
    channels = diverse_setup()
    offered_rate = practical_max_rate(channels, TESTBED_MU, SYMBOL_SIZE)
    config = ProtocolConfig(kappa=TESTBED_KAPPA, mu=TESTBED_MU, symbol_size=SYMBOL_SIZE)
    plan_s = time.process_time() - started
    recorder = _DeliveryRecorder(check)
    patcher = Patcher()
    try:
        recorder.install(patcher)
        result = run_iperf(
            channels,
            config,
            offered_rate,
            duration=size["duration"],
            warmup=TESTBED_WARMUP,
            seed=seed,
        )
    finally:
        patcher.restore()
    return Outcome(
        delivered=recorder.count,
        transmitted=result.sender_stats["symbols_sent"],
        symbol_size=SYMBOL_SIZE,
        flows=1,
        digest=recorder.digest,
        wrong_payloads=recorder.wrong,
        plan_s=plan_s,
    )


def _fleet(workload: str, seed: int, flows: int, **kwargs) -> Outcome:
    report = run_fleet(
        flows=flows,
        shards=1,
        symbol_size=FLEET_SYMBOL_SIZE,
        spec_id=f"bench/{workload}/{seed}",
        **kwargs,
    )
    return Outcome(
        delivered=report.delivered_total,
        transmitted=report.offered_total,
        symbol_size=FLEET_SYMBOL_SIZE,
        flows=report.admitted,
        digest=report.fleet_digest,
        kappa_violations=report.kappa_floor_violations,
    )


def fleet_synth(seed: int, size: dict, check: bool = False) -> Outcome:
    """Many small synthetic flows: per-event cost, GF and auth bypassed."""
    return _fleet("fleet_synth", seed, size["flows"], symbols_per_flow=4)


def fleet_auth(seed: int, size: dict, check: bool = False) -> Outcome:
    """Real, authenticated fleet payloads: many small split/reconstruct calls."""
    return _fleet(
        "fleet_auth", seed, size["flows"], symbols_per_flow=8, synthetic=False, auth=True
    )


def attack_auth(seed: int, size: dict, check: bool = False) -> Outcome:
    """Every canonical attack against authenticated shares: the reject paths."""
    started = time.process_time()
    duration = size["duration"]
    plans = {
        name: canonical_attack(name, ATTACK_WARMUP, ATTACK_WARMUP + duration)
        for name in sorted(CANONICAL_ATTACKS)
    }
    plan_s = time.process_time() - started
    rows = {
        name: run_under_attack(
            plan,
            symbol_size=ATTACK_SYMBOL_SIZE,
            duration=duration,
            warmup=ATTACK_WARMUP,
            seed=seed,
            auth=True,
        )
        for name, plan in plans.items()
    }
    digest = hashlib.sha256()
    for name, row in rows.items():
        digest.update(f"{name}:{row['digest']}\n".encode())
    return Outcome(
        delivered=sum(row["delivered"] for row in rows.values()),
        transmitted=sum(row["transmitted"] for row in rows.values()),
        symbol_size=ATTACK_SYMBOL_SIZE,
        flows=len(rows),
        digest=digest.hexdigest(),
        wrong_payloads=sum(row["wrong_payloads"] for row in rows.values()),
        kappa_violations=sum(not row["kappa_floor_held"] for row in rows.values()),
        plan_s=plan_s,
    )


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "testbed_real": testbed_real,
    "fleet_synth": fleet_synth,
    "fleet_auth": fleet_auth,
    "attack_auth": attack_auth,
}
