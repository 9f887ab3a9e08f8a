"""Byzantine channels: correcting tampered shares, not just lost ones.

The paper's model tolerates share *loss* (m − k per symbol); the perfectly
secure message transmission literature it builds on also demands tolerance
to share *modification* by an adversary controlling a channel.  Shamir
shares are Reed-Solomon codewords, so with 2e extra shares the receiver can
correct e corruptions and even name the guilty channel.

This example runs the protocol across four channels, one of which an
on-path attacker holds: it flips one byte in half the shares it carries
(an attack plan's ``corrupt`` regime).  It compares plain k-of-m
reconstruction against Byzantine-tolerant operation
(``byzantine_tolerance=1``).

Run:  python examples/byzantine_channels.py
"""

from repro.adversary.active import AttackPlan
from repro.core import ChannelSet
from repro.netsim import RngRegistry
from repro.protocol import PointToPointNetwork, ProtocolConfig

TAMPER_CHANNEL = 0
TAMPER_PROBABILITY = 0.5
SYMBOLS = 400


def run(byzantine_tolerance: int):
    channels = ChannelSet.from_vectors(
        risks=[0.0] * 4,
        losses=[0.0] * 4,
        delays=[0.01] * 4,
        rates=[100.0] * 4,
        names=["evil-isp", "dsl", "lte", "sat"],
    )
    registry = RngRegistry(17)
    network = PointToPointNetwork(channels, symbol_size=256, rng_registry=registry)
    network.apply_attack(
        AttackPlan().corrupt(0.0, rate=TAMPER_PROBABILITY, channel=TAMPER_CHANNEL),
        registry,
    )
    config = ProtocolConfig(
        kappa=2.0,
        mu=4.0,
        symbol_size=256,
        byzantine_tolerance=byzantine_tolerance,
    )
    node_a, node_b = network.node_pair(config, registry)
    delivered = {}
    node_b.on_deliver(lambda seq, payload, delay: delivered.__setitem__(seq, payload))
    payload_rng = registry.stream("payloads")
    sent = []

    def offer():
        payload = payload_rng.bytes(256)
        if node_a.send(payload):
            sent.append(payload)

    for i in range(SYMBOLS):
        network.engine.schedule_at(i * 0.05, offer)
    network.engine.run_until(SYMBOLS * 0.05 + 10.0)

    intact = sum(1 for seq, payload in delivered.items() if payload == sent[seq])
    return {
        "delivered": len(delivered),
        "intact": intact,
        "detected": node_b.receiver.stats.corrupt_shares_detected,
        "by_channel": dict(node_b.receiver.corrupt_by_channel),
    }


print(f"Channel {TAMPER_CHANNEL} ('evil-isp') tampers with "
      f"{int(100 * TAMPER_PROBABILITY)}% of the shares it carries.\n")

plain = run(byzantine_tolerance=0)
print("=== Plain operation (complete at k = 2 shares) ===")
print(f"  delivered: {plain['delivered']}  intact: {plain['intact']}  "
      f"garbled: {plain['delivered'] - plain['intact']}")
print("  The receiver trusts the first k shares; tampered ones silently")
print("  reconstruct to garbage.\n")

robust = run(byzantine_tolerance=1)
print("=== Byzantine-tolerant operation (wait for k + 2e = 4 shares) ===")
print(f"  delivered: {robust['delivered']}  intact: {robust['intact']}  "
      f"garbled: {robust['delivered'] - robust['intact']}")
print(f"  corrupt shares detected and corrected: {robust['detected']}")
print(f"  attribution by channel index: {robust['by_channel']}")
print(
    "\nEvery corruption was corrected AND pinned on the tampering channel --"
    "\nthat attribution can feed the risk estimator, closing the loop between"
    "\nintegrity monitoring and the share schedule."
)
