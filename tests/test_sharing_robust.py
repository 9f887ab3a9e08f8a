"""Robust (Byzantine-tolerant) Shamir reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharing.base import ReconstructionError, Share
from repro.sharing.robust import (
    evaluate_shares_at,
    max_correctable_errors,
    reconstruct_with_erasures,
    robust_reconstruct,
)
from repro.sharing.shamir import ShamirScheme

scheme = ShamirScheme()


def make_shares(secret=b"byzantine fault tolerance", k=2, m=5, seed=0):
    return scheme.split(secret, k, m, np.random.default_rng(seed))


def corrupt(share: Share, offset: int = 0, flip: int = 0x5A) -> Share:
    data = bytearray(share.data)
    data[offset] ^= flip
    return Share(index=share.index, data=bytes(data), k=share.k, m=share.m)


class TestRadius:
    def test_values(self):
        assert max_correctable_errors(5, 2) == 1
        assert max_correctable_errors(5, 1) == 2
        assert max_correctable_errors(5, 5) == 0
        assert max_correctable_errors(3, 2) == 0

    def test_too_few_shares(self):
        with pytest.raises(ValueError):
            max_correctable_errors(2, 3)


class TestEvaluateAt:
    def test_at_zero_is_reconstruction(self):
        secret = b"eval at zero"
        shares = make_shares(secret, k=3, m=5)
        assert evaluate_shares_at(shares[:3], 0) == secret

    def test_predicts_other_shares(self):
        shares = make_shares(k=2, m=4)
        predicted = evaluate_shares_at(shares[:2], shares[3].index)
        assert predicted == shares[3].data

    def test_duplicate_indices_rejected(self):
        shares = make_shares(k=2, m=3)
        with pytest.raises(ReconstructionError):
            evaluate_shares_at([shares[0], shares[0]], 0)

    def test_share_index_beyond_the_field_rejected(self):
        # A Share allows m > 255, but GF(256) has only 255 nonzero points.
        shares = [Share(index=i, data=b"\x07\x09", k=2, m=300) for i in (1, 256, 3)]
        with pytest.raises(ReconstructionError, match="256"):
            evaluate_shares_at(shares[:2], 0)
        with pytest.raises(ReconstructionError, match="256"):
            robust_reconstruct(shares)
        with pytest.raises(ReconstructionError, match="256"):
            reconstruct_with_erasures(shares)
        with pytest.raises(ReconstructionError, match="256"):
            reconstruct_with_erasures([shares[0], shares[2], shares[1]])


class TestRobustReconstruct:
    def test_no_corruption(self):
        secret = b"clean path"
        result = robust_reconstruct(make_shares(secret, k=2, m=5))
        assert result.secret == secret
        assert result.corrupted == frozenset()
        assert result.agreement == 5

    def test_corrects_one_corruption(self):
        secret = b"one bad courier"
        shares = make_shares(secret, k=2, m=5)
        shares[3] = corrupt(shares[3])
        result = robust_reconstruct(shares)
        assert result.secret == secret
        assert result.corrupted == frozenset({shares[3].index})

    def test_corrects_two_corruptions_when_radius_allows(self):
        secret = b"two bad couriers"
        shares = make_shares(secret, k=1, m=5)
        shares[0] = corrupt(shares[0])
        shares[4] = corrupt(shares[4], offset=3)
        result = robust_reconstruct(shares)
        assert result.secret == secret
        assert result.corrupted == frozenset({shares[0].index, shares[4].index})

    def test_beyond_radius_detected(self):
        secret = b"too many liars"
        shares = make_shares(secret, k=3, m=5)  # radius = 1
        shares[0] = corrupt(shares[0])
        shares[1] = corrupt(shares[1], offset=2)
        with pytest.raises(ReconstructionError):
            robust_reconstruct(shares)

    def test_explicit_error_budget(self):
        shares = make_shares(k=2, m=5)
        with pytest.raises(ReconstructionError):
            robust_reconstruct(shares, errors=2)  # radius is 1

    def test_zero_radius_still_reconstructs_clean(self):
        secret = b"exact fit"
        shares = make_shares(secret, k=3, m=3)
        result = robust_reconstruct(shares)
        assert result.secret == secret

    def test_inconsistent_lengths_rejected(self):
        shares = make_shares(k=2, m=4)
        shares[1] = Share(index=shares[1].index, data=shares[1].data[:-1], k=2, m=4)
        with pytest.raises(ReconstructionError):
            robust_reconstruct(shares)

    @given(
        secret=st.binary(min_size=1, max_size=60),
        k=st.integers(min_value=1, max_value=3),
        bad_position=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_corruption_property(self, secret, k, bad_position, seed):
        m = 5  # radius (5 - k) // 2 >= 1 for k <= 3
        shares = scheme.split(secret, k, m, np.random.default_rng(seed))
        shares[bad_position] = corrupt(shares[bad_position], offset=len(secret) // 2)
        result = robust_reconstruct(shares)
        assert result.secret == secret
        assert shares[bad_position].index in result.corrupted


class TestEndToEndByzantine:
    """A corrupting channel, end to end through the protocol."""

    def _run(self, corruption, byzantine_tolerance, kappa=2.0, mu=4.0, symbols=300):
        from repro.core.channel import ChannelSet
        from repro.netsim.rng import RngRegistry
        from repro.protocol.config import ProtocolConfig
        from repro.protocol.remicss import PointToPointNetwork

        channels = ChannelSet.from_vectors(
            risks=[0.0] * 4,
            losses=[0.0] * 4,
            delays=[0.01] * 4,
            rates=[100.0] * 4,
        )
        registry = RngRegistry(6)
        network = PointToPointNetwork(channels, 100, registry)
        # Channel 0 is the Byzantine one (with identical channels the
        # receiver hears shares in index order, so channel 0 is always
        # among the k fastest and its corruption actually matters).
        network.duplex[0].forward.corruption = corruption
        config = ProtocolConfig(
            kappa=kappa, mu=mu, symbol_size=100,
            byzantine_tolerance=byzantine_tolerance,
        )
        node_a, node_b = network.node_pair(config, registry)
        delivered = {}
        node_b.on_deliver(lambda seq, payload, delay: delivered.__setitem__(seq, payload))
        sent = []
        payload_rng = registry.stream("payloads")
        engine = network.engine

        def offer():
            payload = payload_rng.bytes(100)
            if node_a.send(payload):
                sent.append(payload)

        for i in range(symbols):
            engine.schedule_at(i * 0.05, offer)
        engine.run_until(symbols * 0.05 + 10.0)
        return sent, delivered, node_b

    def test_without_tolerance_corruption_garbles_payloads(self):
        sent, delivered, _ = self._run(corruption=0.5, byzantine_tolerance=0)
        garbled = sum(
            1 for seq, payload in delivered.items() if payload != sent[seq]
        )
        assert garbled > 10  # k-of-m reconstruction trusts whatever arrives

    def test_with_tolerance_every_payload_is_intact(self):
        sent, delivered, node_b = self._run(corruption=0.5, byzantine_tolerance=1)
        assert len(delivered) > 250
        assert all(delivered[seq] == sent[seq] for seq in delivered)
        assert node_b.receiver.stats.corrupt_shares_detected > 10

    def test_corruption_attributed_to_the_right_channel(self):
        _, _, node_b = self._run(corruption=0.5, byzantine_tolerance=1)
        counts = node_b.receiver.corrupt_by_channel
        assert counts  # something detected
        assert max(counts, key=counts.get) == 0  # the Byzantine channel

    def test_config_validation(self):
        from repro.protocol.config import ProtocolConfig

        with pytest.raises(ValueError):
            ProtocolConfig(kappa=2.0, mu=3.0, byzantine_tolerance=1)  # needs mu >= 4
        with pytest.raises(ValueError):
            ProtocolConfig(kappa=1.0, mu=3.0, byzantine_tolerance=1, share_synthetic=True)
        with pytest.raises(ValueError):
            ProtocolConfig(byzantine_tolerance=-1)
