"""The receiver's replay defense.

A benign duplicate (network-level retransmit) carries the *same* bytes and
keeps counting as ``duplicate_shares``; a replayed-and-tampered copy -- or
a forgery squatting on an occupied (seq, index) slot -- carries
*different* bytes for the same slot and is counted as
``replayed_shares_dropped``.  Either way the first-arrival share is kept:
replays can never displace material already accepted.
"""

import numpy as np

from repro.adversary.active.primitives import corrupt_share_packet
from repro.netsim.engine import Engine
from repro.netsim.packet import Datagram
from repro.protocol.receiver import ReassemblyBuffer
from repro.protocol.wire import encode_share
from repro.sharing.shamir import ShamirScheme

scheme = ShamirScheme()


def make_buffer(engine, deliveries, **kwargs):
    return ReassemblyBuffer(
        engine,
        scheme,
        timeout=5.0,
        limit=16,
        on_deliver=lambda flow, seq, payload, delay: deliveries.append((seq, payload)),
        **kwargs,
    )


def share_datagrams(seq, secret, k, m, seed=0, flow=0):
    rng = np.random.default_rng(seed)
    return [
        Datagram(
            size=len(packet),
            payload=packet,
            meta={"symbol_sent_at": 0.0},
        )
        for packet in (
            encode_share(seq, share, scheme.name, flow=flow)
            for share in scheme.split(secret, k, m, rng)
        )
    ]


def tampered(datagram, seed=9):
    mutated = corrupt_share_packet(
        datagram.payload, np.random.default_rng(seed), "flip"
    )
    return Datagram(size=len(mutated), payload=mutated, meta=dict(datagram.meta))


class TestReplayedSharesDropped:
    def test_tampered_duplicate_counts_as_replay(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"secret", 2, 4)
        buf.handle_datagram(datagrams[0])
        buf.handle_datagram(tampered(datagrams[0]))
        assert buf.stats.replayed_shares_dropped == 1
        assert buf.stats.duplicate_shares == 0

    def test_identical_duplicate_still_benign(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"secret", 2, 4)
        buf.handle_datagram(datagrams[0])
        buf.handle_datagram(datagrams[0])
        assert buf.stats.duplicate_shares == 1
        assert buf.stats.replayed_shares_dropped == 0

    def test_first_arrival_wins_and_symbol_still_decodes(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"secret", 2, 4)
        buf.handle_datagram(datagrams[0])
        buf.handle_datagram(tampered(datagrams[0]))
        buf.handle_datagram(datagrams[1])
        assert deliveries == [(1, b"secret")]

    def test_replays_counted_per_occurrence(self):
        engine = Engine()
        buf = make_buffer(engine, [])
        datagrams = share_datagrams(2, b"again", 2, 4)
        buf.handle_datagram(datagrams[0])
        buf.handle_datagram(tampered(datagrams[0], seed=1))
        buf.handle_datagram(tampered(datagrams[0], seed=2))
        assert buf.stats.replayed_shares_dropped == 2

    def test_flowed_shares_covered_too(self):
        engine = Engine()
        buf = make_buffer(engine, [])
        datagrams = share_datagrams(3, b"flowed", 2, 4, flow=2)
        buf.handle_datagram(datagrams[0])
        buf.handle_datagram(tampered(datagrams[0]))
        assert buf.stats.replayed_shares_dropped == 1


class TestStatsShape:
    def test_flow0_as_dict_shape_preserved(self):
        engine = Engine()
        buf = make_buffer(engine, [])
        for dg in share_datagrams(1, b"shape", 2, 4)[:2]:
            buf.handle_datagram(dg)
        data = buf.stats.as_dict()
        assert "flows" not in data
        assert data["replayed_shares_dropped"] == 0

    def test_counter_is_scalar_not_per_flow(self):
        engine = Engine()
        buf = make_buffer(engine, [])
        datagrams = share_datagrams(1, b"scalar", 2, 4, flow=2)
        buf.handle_datagram(datagrams[0])
        buf.handle_datagram(tampered(datagrams[0]))
        data = buf.stats.as_dict()
        assert data["replayed_shares_dropped"] == 1
