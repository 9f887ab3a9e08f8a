"""Every byte put on the wire, pinned by SHA-256.

The delivery digests (ledger, goldens) cover what the receiver
reconstructs, which is the payload whatever the share pad was.  These
pins cover the share packets themselves, coefficient bytes included: each
test hashes every packet passed to ``Link.send`` in one seeded run and
compares the packet count and the digest.  A change to how share
randomness is drawn, framed or tagged moves them; a speed-up of the same
draws does not.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.adversary.active import canonical_attack, run_under_attack
from repro.netsim.link import Link
from repro.protocol.config import ProtocolConfig
from repro.workloads.fleet import run_fleet
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import SYMBOL_SIZE, diverse_setup


@pytest.fixture
def wire(monkeypatch):
    """Hash every packet passed to ``Link.send``: returns ``(count, sha256)``."""
    digest = hashlib.sha256()
    packets = [0]
    send = Link.send

    def recording_send(link, datagram):
        packets[0] += 1
        payload = datagram.payload
        digest.update(f"{datagram.size}:".encode())
        digest.update(b"-" if payload is None else len(payload).to_bytes(4, "big") + payload)
        return send(link, datagram)

    monkeypatch.setattr(Link, "send", recording_send)
    return lambda: (packets[0], digest.hexdigest())


def test_testbed_real_payloads(wire):
    channels = diverse_setup()
    config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=SYMBOL_SIZE)
    rate = practical_max_rate(channels, 3.0, SYMBOL_SIZE)
    run_iperf(channels, config, rate, duration=3, warmup=1, seed=7)
    assert wire() == (
        891, "48724b057e5aad2f8e70c44f322118f1816238bca62a3f0b9d046453350f3697"
    )


def test_authenticated_fleet(wire):
    run_fleet(
        flows=64, symbols_per_flow=8, synthetic=False, auth=True, spec_id="pin/x/1"
    )
    assert wire() == (
        1800, "ba48a194e8c02f216284a6d26229869c998ae4b3e562ec10e02e300486976a68"
    )


def test_attack_with_auth(wire):
    plan = canonical_attack("forged_injection", 4.0, 24.0)
    run_under_attack(plan, duration=20.0, seed=7, auth=True)
    assert wire() == (
        176, "218a55d53e2b798e8e1c398819ecab7f7ac3523f0d3135894b741bd620b94b5e"
    )
