"""Byzantine-tolerance ablation: what robust decoding costs and buys.

The PSMT lineage the paper builds on (Dolev et al.) requires tolerating
*corrupted* shares, not only lost ones.  ReMICSS here optionally waits for
``k + 2e`` shares and decodes robustly.  These benches measure the decode
cost and the end-to-end integrity difference on a tampering channel.
"""

import numpy as np
from conftest import run_once

from repro.core.channel import ChannelSet
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.sharing.robust import robust_reconstruct
from repro.sharing.shamir import ShamirScheme

SECRET = bytes(range(256)) * 5
scheme = ShamirScheme()


def test_robust_decode_clean(benchmark):
    shares = scheme.split(SECRET, 2, 5, np.random.default_rng(0))
    result = benchmark(robust_reconstruct, shares)
    assert result.secret == SECRET


def test_robust_decode_with_corruption(benchmark):
    shares = scheme.split(SECRET, 2, 5, np.random.default_rng(0))
    data = bytearray(shares[1].data)
    data[0] ^= 0xFF
    from repro.sharing.base import Share

    shares[1] = Share(index=shares[1].index, data=bytes(data), k=2, m=5)
    result = benchmark(robust_reconstruct, shares)
    assert result.secret == SECRET
    assert result.corrupted


def test_plain_decode_baseline(benchmark):
    shares = scheme.split(SECRET, 2, 5, np.random.default_rng(0))[:2]
    result = benchmark(scheme.reconstruct, shares)
    assert result == SECRET


def test_byzantine_end_to_end_integrity(benchmark):
    """Goodput and integrity with a 30%-tampering channel, e = 0 vs e = 1."""

    def run(byzantine_tolerance):
        channels = ChannelSet.from_vectors(
            risks=[0.0] * 4, losses=[0.0] * 4, delays=[0.01] * 4, rates=[100.0] * 4
        )
        registry = RngRegistry(13)
        network = PointToPointNetwork(channels, 256, registry)
        network.duplex[0].forward.set_corruption(0.3)
        config = ProtocolConfig(
            kappa=2.0, mu=4.0, symbol_size=256,
            byzantine_tolerance=byzantine_tolerance,
        )
        node_a, node_b = network.node_pair(config, registry)
        delivered = {}
        node_b.on_deliver(lambda seq, payload, delay: delivered.__setitem__(seq, payload))
        payload_rng = registry.stream("payloads")
        sent = []
        engine = network.engine

        def offer():
            payload = payload_rng.bytes(256)
            if node_a.send(payload):
                sent.append(payload)

        for i in range(500):
            engine.schedule_at(i * 0.05, offer)
        engine.run_until(40.0)
        intact = sum(1 for seq, payload in delivered.items() if payload == sent[seq])
        return len(delivered), intact

    def run_both():
        return run(0), run(1)

    (plain_total, plain_intact), (robust_total, robust_intact) = run_once(
        benchmark, run_both
    )
    print(
        f"\nByzantine ablation (30% tampering on 1 of 4 channels):"
        f"\n  e=0: {plain_intact}/{plain_total} delivered intact"
        f"\n  e=1: {robust_intact}/{robust_total} delivered intact"
    )
    assert plain_intact < plain_total  # corruption got through
    assert robust_intact == robust_total  # robust decoding corrected it all
