"""The (k, L, m) ramp scheme: roundtrip, size advantage, graded secrecy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharing.base import ReconstructionError
from repro.sharing.ramp import RampScheme
from repro.sharing.shamir import ShamirScheme


class TestRoundtrip:
    def test_basic(self):
        scheme = RampScheme(blocks=2)
        rng = np.random.default_rng(0)
        secret = b"ramp schemes trade margin for rate"
        shares = scheme.split(secret, 3, 5, rng)
        assert scheme.reconstruct(shares[:3]) == secret

    def test_any_k_subset(self):
        from itertools import combinations

        scheme = RampScheme(blocks=2)
        rng = np.random.default_rng(1)
        secret = bytes(range(100))
        shares = scheme.split(secret, 3, 5, rng)
        for subset in combinations(shares, 3):
            assert scheme.reconstruct(list(subset)) == secret

    def test_empty_secret(self):
        scheme = RampScheme(blocks=3)
        rng = np.random.default_rng(3)
        shares = scheme.split(b"", 3, 4, rng)
        assert scheme.reconstruct(shares[:3]) == b""

    def test_k_equals_l(self):
        scheme = RampScheme(blocks=3)
        rng = np.random.default_rng(4)
        secret = b"threshold equals blocks"
        shares = scheme.split(secret, 3, 5, rng)
        assert scheme.reconstruct(shares[1:4]) == secret

    @given(
        secret=st.binary(max_size=120),
        blocks=st.integers(min_value=2, max_value=4),
        slack=st.integers(min_value=0, max_value=2),
        extra=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, secret, blocks, slack, extra):
        scheme = RampScheme(blocks=blocks)
        k = blocks + slack
        m = k + extra
        rng = np.random.default_rng(7)
        shares = scheme.split(secret, k, m, rng)
        assert scheme.reconstruct(shares[extra:]) == secret


class TestSizeAdvantage:
    def test_share_size_is_secret_over_l(self):
        scheme = RampScheme(blocks=4)
        rng = np.random.default_rng(0)
        secret = bytes(1000)
        shares = scheme.split(secret, 4, 5, rng)
        # (4-byte length + 1000) / 4 = 251 bytes per share.
        assert all(len(s.data) == 251 for s in shares)
        assert scheme.share_size(1000) == 251

    def test_smaller_than_shamir(self):
        secret = bytes(1250)
        ramp = RampScheme(blocks=2)
        shamir = ShamirScheme()
        rng = np.random.default_rng(0)
        ramp_share = ramp.split(secret, 2, 3, rng)[0]
        shamir_share = shamir.split(secret, 2, 3, rng)[0]
        assert len(ramp_share.data) < len(shamir_share.data)
        assert len(ramp_share.data) == pytest.approx(len(secret) / 2, abs=4)


class TestSecrecy:
    def test_below_ramp_threshold_uniform(self):
        """With k - L shares, share bytes are uniform regardless of secret."""
        scheme = RampScheme(blocks=2)  # k - L = 1 share reveals nothing
        rng = np.random.default_rng(5)
        samples = []
        for _ in range(3000):
            shares = scheme.split(b"\x00\x00", 3, 3, rng)
            samples.append(shares[0].data[0])
        assert abs(np.mean(samples) - 127.5) < 7.0

    def test_partial_leakage_documented(self):
        """Between k-L and k shares the ramp leaks: with L=k every single
        share is a linear combination of secret blocks only (no randomness),
        which is the extreme of the documented tradeoff."""
        scheme = RampScheme(blocks=2)
        rng = np.random.default_rng(6)
        # k = L = 2: coefficients are both secret blocks; the share at x=0
        # would BE block 0.  Shares are deterministic given the secret.
        a = scheme.split(b"same secret!", 2, 3, rng)
        b = scheme.split(b"same secret!", 2, 3, rng)
        assert [s.data for s in a] == [s.data for s in b]


class TestValidation:
    def test_blocks_validation(self):
        with pytest.raises(ValueError):
            RampScheme(blocks=0)

    def test_one_block_is_refused(self):
        # L = 1 is ShamirScheme: a one-block ramp would pass as Shamir for
        # robust decoding, which cannot strip the ramp's length prefix.
        with pytest.raises(ValueError, match="ShamirScheme"):
            RampScheme(blocks=1)

    def test_k_below_blocks_rejected(self):
        scheme = RampScheme(blocks=3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            scheme.split(b"x", 2, 4, rng)

    def test_supports(self):
        scheme = RampScheme(blocks=2)
        assert scheme.supports(2, 4)
        assert scheme.supports(3, 3)
        assert not scheme.supports(1, 4)  # k < L
        assert not scheme.supports(2, 256)

    def test_too_few_shares(self):
        scheme = RampScheme(blocks=2)
        rng = np.random.default_rng(0)
        shares = scheme.split(b"secret", 3, 4, rng)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct(shares[:2])

    def test_inconsistent_lengths(self):
        from repro.sharing.base import Share

        scheme = RampScheme(blocks=2)
        rng = np.random.default_rng(0)
        shares = scheme.split(b"secretsecret", 2, 3, rng)
        bad = Share(index=shares[1].index, data=shares[1].data[:-1], k=2, m=3)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct([shares[0], bad])
