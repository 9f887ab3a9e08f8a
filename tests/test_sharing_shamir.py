"""Shamir threshold sharing: correctness, secrecy, and error handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharing.base import ReconstructionError, Share
from repro.sharing.shamir import ShamirScheme

scheme = ShamirScheme()


def split(secret, k, m, seed=0):
    return scheme.split(secret, k, m, np.random.default_rng(seed))


class TestRoundtrip:
    def test_basic(self):
        secret = b"attack at dawn"
        shares = split(secret, 3, 5)
        assert scheme.reconstruct(shares[:3]) == secret

    def test_any_k_subset_reconstructs(self):
        secret = bytes(range(64))
        shares = split(secret, 3, 5)
        from itertools import combinations

        for subset in combinations(shares, 3):
            assert scheme.reconstruct(list(subset)) == secret

    def test_more_than_k_shares_ok(self):
        secret = b"x" * 100
        shares = split(secret, 2, 5)
        assert scheme.reconstruct(shares) == secret

    def test_k_equals_one_broadcast(self):
        secret = b"public-ish"
        shares = split(secret, 1, 4)
        # k=1: every share IS the secret (degree-0 polynomial).
        for share in shares:
            assert scheme.reconstruct([share]) == secret

    def test_k_equals_m(self):
        secret = b"need all of them"
        shares = split(secret, 4, 4)
        assert scheme.reconstruct(shares) == secret

    def test_empty_secret(self):
        shares = split(b"", 2, 3)
        assert all(share.data == b"" for share in shares)
        assert scheme.reconstruct(shares[:2]) == b""

    def test_single_byte(self):
        shares = split(b"\xff", 2, 2)
        assert scheme.reconstruct(shares) == b"\xff"

    def test_share_size_equals_secret_size(self):
        # The model's H(Y) = H(X) optimal-case assumption.
        secret = bytes(1250)
        for share in split(secret, 3, 5):
            assert len(share.data) == len(secret)

    @given(
        secret=st.binary(min_size=0, max_size=200),
        k=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, secret, k, extra, seed):
        m = k + extra
        shares = scheme.split(secret, k, m, np.random.default_rng(seed))
        assert len(shares) == m
        assert scheme.reconstruct(shares[extra:]) == secret


class TestSecrecy:
    def test_fewer_than_k_shares_reveal_nothing_statistically(self):
        """With k-1 shares, a share byte is uniform whatever the secret.

        We share the one-byte secrets 0x00 and 0xFF many times and check
        that the observed distribution of the first share's byte is close
        to uniform for both (any dependence on the secret would skew it).
        """
        rng = np.random.default_rng(7)
        trials = 4000
        for secret_byte in (0, 255):
            samples = np.array(
                [
                    scheme.split(bytes([secret_byte]), 2, 2, rng)[0].data[0]
                    for _ in range(trials)
                ]
            )
            mean = samples.mean()
            # Uniform over 0..255 has mean 127.5, sd ~73.9; the sample mean
            # sd is ~1.2 at 4000 trials, so a +/-6 band is ~5 sigma.
            assert abs(mean - 127.5) < 6.0
            # All byte values should appear possible: a wide spread.
            assert samples.min() < 16 and samples.max() > 239

    def test_share_of_different_secrets_differ(self):
        rng = np.random.default_rng(3)
        a = scheme.split(b"secret-A", 2, 3, rng)
        b = scheme.split(b"secret-B", 2, 3, rng)
        assert a[0].data != b[0].data or a[1].data != b[1].data

    def test_k_minus_one_shares_cannot_reconstruct(self):
        shares = split(b"super secret", 3, 5)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct(shares[:2])


class TestValidation:
    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            scheme.split(b"x", 0, 3, rng)
        with pytest.raises(ValueError):
            scheme.split(b"x", 4, 3, rng)
        with pytest.raises(ValueError):
            scheme.split(b"x", 1, 256, rng)

    def test_supports(self):
        assert scheme.supports(3, 5)
        assert scheme.supports(1, 255)
        assert not scheme.supports(1, 256)
        assert not scheme.supports(0, 1)
        assert not scheme.supports(5, 3)

    def test_duplicate_indices_rejected(self):
        shares = split(b"dup", 2, 3)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct([shares[0], shares[0]])

    def test_inconsistent_parameters_rejected(self):
        a = split(b"one", 2, 3)[0]
        b = Share(index=2, data=a.data, k=3, m=4)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct([a, b])

    def test_inconsistent_lengths_rejected(self):
        a = split(b"abcd", 2, 3)
        bad = Share(index=a[1].index, data=a[1].data[:-1], k=2, m=3)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct([a[0], bad])

    def test_no_shares_rejected(self):
        with pytest.raises(ReconstructionError):
            scheme.reconstruct([])

    def test_share_index_beyond_the_field_rejected(self):
        # A Share allows m > 255, but GF(256) has only 255 nonzero points.
        shares = [Share(index=i, data=b"\x07\x09", k=2, m=300) for i in (1, 256)]
        with pytest.raises(ReconstructionError, match="256"):
            scheme.reconstruct(shares)
        with pytest.raises(ReconstructionError, match="256"):
            scheme.reconstruct_many([shares])

    def test_corrupted_share_changes_result(self):
        secret = b"integrity matters here"
        shares = split(secret, 2, 3)
        corrupted = Share(
            index=shares[0].index,
            data=bytes([shares[0].data[0] ^ 1]) + shares[0].data[1:],
            k=2,
            m=3,
        )
        assert scheme.reconstruct([corrupted, shares[1]]) != secret


class TestDeterminism:
    def test_same_seed_same_shares(self):
        a = split(b"repeat", 2, 4, seed=9)
        b = split(b"repeat", 2, 4, seed=9)
        assert [s.data for s in a] == [s.data for s in b]

    def test_different_seed_different_shares(self):
        a = split(b"repeat", 2, 4, seed=9)
        b = split(b"repeat", 2, 4, seed=10)
        assert [s.data for s in a] != [s.data for s in b]


class TestShareRecord:
    """A share is an immutable record: checked when built, compared and
    hashed by its fields, and never printed with its payload."""

    @pytest.mark.parametrize(
        "index,k,m", [(0, 1, 1), (-1, 2, 3), (4, 2, 3), (7, 2, 3), (1, 0, 3), (1, 4, 3)]
    )
    def test_bad_fields_rejected(self, index, k, m):
        with pytest.raises(ValueError):
            Share(index=index, data=b"x", k=k, m=m)

    def test_fields_are_read_only(self):
        share = Share(index=1, data=b"x", k=1, m=2)
        with pytest.raises(AttributeError):
            share.index = 2
        with pytest.raises(AttributeError):
            share.extra = 1

    def test_equality_and_hash_follow_the_fields(self):
        a = Share(1, b"ab", 2, 3)
        assert a == Share(index=1, data=b"ab", k=2, m=3)
        assert a != Share(2, b"ab", 2, 3)
        assert hash(a) == hash((1, b"ab", 2, 3))
        assert len({a, Share(1, b"ab", 2, 3)}) == 1

    def test_repr_redacts_the_payload(self):
        payload = bytes(range(16))
        text = repr(Share(3, payload, 2, 4))
        assert text.startswith("Share(index=3, data=") and text.endswith(", k=2, m=4)")
        assert payload.hex() not in text and repr(payload) not in text
