"""Batch-vs-scalar equivalence for the whole sharing pipeline.

The vectorized kernels in :mod:`repro.gf.batch` power ``split`` and
``reconstruct`` for the GF(2^8) schemes; ``tests/sharing_oracle.py``
keeps the byte-at-a-time scalar oracle.  This suite asserts the two are
*bit-identical* -- not approximately equal -- for every scheme (xor,
shamir, ramp, blakley, robust), payload lengths including 0, 1,
non-multiples of the ramp block size and rows on both sides of the
kernels' int/numpy crossover, and every ``(k, n)`` with
``1 <= k <= n <= 10``; and that any k-subset of shares reconstructs.

Exactness is load-bearing: the privacy model treats share bytes as exact
field elements (``H(Y) = H(X)``, Sec. III-C), so a vectorization bug that
perturbed even one byte would silently invalidate the leakage analysis
rather than fail loudly.  Speed is not checked here: CI's ledger A/B job
times the kernels end to end, through the ``testbed_real`` workload, on
the parent commit and on the change.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sharing.robust as robust_module
import repro.sharing.shamir as shamir_module
from repro.gf.batch import XOR_CROSSOVER
from repro.sharing.base import Share
from repro.sharing.blakley import BlakleyScheme
from repro.sharing.ramp import RampScheme
from repro.sharing.robust import evaluate_shares_at, robust_reconstruct
from repro.sharing.shamir import ShamirScheme
from repro.sharing.xor import XorScheme
from tests.sharing_oracle import (
    scalar_evaluate_shares_at,
    scalar_ramp_reconstruct,
    scalar_ramp_split,
    scalar_shamir_reconstruct,
    scalar_shamir_split,
)

#: Every threshold geometry the protocol model can ask for at n <= 10.
ALL_KN = [(k, n) for n in range(1, 11) for k in range(1, n + 1)]

#: Payload lengths: empty, single byte, a prime (non-multiple of any ramp
#: block size), a round block, a row either side of the kernels' int/numpy
#: XOR crossover, and a testbed datagram.
PAYLOAD_LENGTHS = [0, 1, 37, 64, XOR_CROSSOVER - 1, XOR_CROSSOVER, 1250]


def payload_of(length: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=length, dtype=np.uint8).tobytes()


def share_bytes(shares) -> list:
    return [s.data for s in shares]


class TestShamirEquivalence:
    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_split_bit_identical_to_scalar(self, k, n):
        scheme = ShamirScheme()
        for length in PAYLOAD_LENGTHS:
            secret = payload_of(length, seed=1000 + 31 * k + n)
            batch = scheme.split(secret, k, n, np.random.default_rng(42))
            scalar = scalar_shamir_split(secret, k, n, np.random.default_rng(42))
            assert share_bytes(batch) == share_bytes(scalar)

    @pytest.mark.parametrize("k,m", [(k, m) for k, m in ALL_KN if m <= 5])
    def test_split_leaves_generator_state_of_scalar_split(self, k, m):
        # The next draw from the generator (the next symbol's split, a
        # sampler decision) must not move either.
        scheme = ShamirScheme()
        for length in (0, 1, 37, 1250):
            secret = payload_of(length, seed=11000 + 31 * k + m)
            batch_rng = np.random.default_rng(length)
            scalar_rng = np.random.default_rng(length)
            scheme.split(secret, k, m, batch_rng)
            scalar_shamir_split(secret, k, m, scalar_rng)
            assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_every_k_subset_reconstructs(self, k, n):
        scheme = ShamirScheme()
        secret = payload_of(37, seed=2000 + 31 * k + n)
        shares = scheme.split(secret, k, n, np.random.default_rng(7))
        for subset in combinations(shares, k):
            assert scheme.reconstruct(list(subset)) == secret

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_reconstruct_bit_identical_to_scalar(self, k, n):
        scheme = ShamirScheme()
        for length in PAYLOAD_LENGTHS:
            secret = payload_of(length, seed=3000 + 31 * k + n)
            shares = scheme.split(secret, k, n, np.random.default_rng(9))
            # Scalar interpolation is per-byte Python; spot-check one subset
            # per geometry (the full-subset sweep above uses the batch path).
            subset = list(shares)[n - k :]
            assert scheme.reconstruct(subset) == scalar_shamir_reconstruct(subset) == secret

    @given(
        secret=st.binary(min_size=0, max_size=300),
        k=st.integers(min_value=1, max_value=10),
        extra=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_equivalence_property(self, secret, k, extra, seed):
        scheme = ShamirScheme()
        m = k + extra
        batch = scheme.split(secret, k, m, np.random.default_rng(seed))
        scalar = scalar_shamir_split(secret, k, m, np.random.default_rng(seed))
        assert share_bytes(batch) == share_bytes(scalar)
        assert scheme.reconstruct(batch[extra:]) == secret

    def test_split_many_bit_identical_to_sequential(self):
        scheme = ShamirScheme()
        secrets = [payload_of(length, seed=50 + length) for length in (0, 1, 37, 64, 128)]
        batched = scheme.split_many(secrets, 3, 5, np.random.default_rng(11))
        sequential_rng = np.random.default_rng(11)
        sequential = [scheme.split(secret, 3, 5, sequential_rng) for secret in secrets]
        assert [share_bytes(g) for g in batched] == [share_bytes(g) for g in sequential]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_split_many_leaves_generator_state_of_sequential_splits(self, k):
        scheme = ShamirScheme()
        secrets = [payload_of(length, seed=80 + length) for length in (0, 1, 37, 1250)]
        batch_rng = np.random.default_rng(k)
        sequential_rng = np.random.default_rng(k)
        scheme.split_many(secrets, k, 5, batch_rng)
        for secret in secrets:
            scheme.split(secret, k, 5, sequential_rng)
        assert batch_rng.bit_generator.state == sequential_rng.bit_generator.state

    def test_reconstruct_many_matches_per_group(self):
        scheme = ShamirScheme()
        secrets = [payload_of(length, seed=60 + length) for length in (0, 5, 37, 37)]
        groups = []
        for i, secret in enumerate(secrets):
            shares = scheme.split(secret, 3, 5, np.random.default_rng(70 + i))
            groups.append(shares[i % 3 : i % 3 + 3])
        assert scheme.reconstruct_many(groups) == [scheme.reconstruct(g) for g in groups]
        assert scheme.reconstruct_many([]) == []

    def test_split_many_empty_batch(self):
        assert ShamirScheme().split_many([], 2, 3, np.random.default_rng(0)) == []


class TestKernelCalls:
    """One GF kernel call per split, reconstruct and share evaluation.

    The benchmark ledger times the GF layer by wrapping these module
    bindings (``benchmarks/ledger/ledger_trace.py``); a scheme that reached
    the arithmetic another way would drop out of that trace.
    """

    @staticmethod
    def count_calls(monkeypatch, module, name) -> list:
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_split_evaluates_once(self, monkeypatch, k):
        calls = self.count_calls(monkeypatch, shamir_module, "eval_poly_at_points")
        ShamirScheme().split(payload_of(37, seed=k), k, 3, np.random.default_rng(k))
        assert len(calls) == 1

    def test_reconstruct_interpolates_once(self, monkeypatch):
        secret = payload_of(37, seed=12)
        shares = ShamirScheme().split(secret, 2, 3, np.random.default_rng(12))
        calls = self.count_calls(monkeypatch, shamir_module, "lagrange_interpolate")
        assert ShamirScheme().reconstruct(shares[1:]) == secret
        assert len(calls) == 1

    def test_evaluate_shares_at_interpolates_once(self, monkeypatch):
        shares = ShamirScheme().split(payload_of(37, seed=13), 2, 3, np.random.default_rng(13))
        calls = self.count_calls(monkeypatch, robust_module, "lagrange_interpolate")
        assert evaluate_shares_at(shares[:2], 3) == shares[2].data
        assert len(calls) == 1


class TestRampEquivalence:
    @pytest.mark.parametrize("blocks", [2, 3, 4])
    def test_split_bit_identical_to_scalar(self, blocks):
        scheme = RampScheme(blocks=blocks)
        for k, n in ALL_KN:
            if k < blocks:
                continue
            for length in PAYLOAD_LENGTHS:
                secret = payload_of(length, seed=4000 + 31 * k + n + length)
                batch = scheme.split(secret, k, n, np.random.default_rng(13))
                scalar = scalar_ramp_split(
                    secret, k, n, np.random.default_rng(13), blocks=blocks
                )
                assert share_bytes(batch) == share_bytes(scalar)

    @pytest.mark.parametrize(
        "blocks,k,m",
        [(blocks, k, m) for blocks in (2, 3, 4) for k, m in ALL_KN if blocks <= k and m <= 5],
    )
    def test_split_leaves_generator_state_of_scalar_split(self, blocks, k, m):
        scheme = RampScheme(blocks=blocks)
        for length in (0, 1, 37, 1250):
            secret = payload_of(length, seed=12000 + 31 * k + m)
            batch_rng = np.random.default_rng(length)
            scalar_rng = np.random.default_rng(length)
            scheme.split(secret, k, m, batch_rng)
            scalar_ramp_split(secret, k, m, scalar_rng, blocks=blocks)
            assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_reconstruct_bit_identical_to_scalar(self, blocks):
        scheme = RampScheme(blocks=blocks)
        for k, n in ALL_KN:
            if k < blocks:
                continue
            for length in PAYLOAD_LENGTHS:
                secret = payload_of(length, seed=5000 + 31 * k + n)
                shares = scheme.split(secret, k, n, np.random.default_rng(17))
                subset = list(shares)[n - k :]
                assert (
                    scheme.reconstruct(subset)
                    == scalar_ramp_reconstruct(subset, blocks=blocks)
                    == secret
                )

    def test_every_k_subset_reconstructs(self):
        scheme = RampScheme(blocks=2)
        for k, n in ALL_KN:
            if k < 2:
                continue
            secret = payload_of(23, seed=6000 + 31 * k + n)
            shares = scheme.split(secret, k, n, np.random.default_rng(19))
            for subset in combinations(shares, k):
                assert scheme.reconstruct(list(subset)) == secret


class TestRobustEquivalence:
    @pytest.mark.parametrize("k,n", [(k, n) for k, n in ALL_KN if n >= k + 2])
    def test_evaluate_shares_bit_identical_to_scalar(self, k, n):
        scheme = ShamirScheme()
        secret = payload_of(29, seed=7000 + 31 * k + n)
        shares = scheme.split(secret, k, n, np.random.default_rng(23))[:k]
        for x in (0, k + 1, 200, 255):
            assert evaluate_shares_at(shares, x) == scalar_evaluate_shares_at(shares, x)

    def test_robust_reconstruct_matches_scalar_under_corruption(self):
        scheme = ShamirScheme()
        for k, n in [(2, 6), (3, 7), (3, 10), (4, 10)]:
            secret = payload_of(41, seed=8000 + 31 * k + n)
            shares = scheme.split(secret, k, n, np.random.default_rng(29))
            radius = (n - k) // 2
            corrupted = list(shares)
            for i in range(radius):
                flipped = bytes([corrupted[i].data[0] ^ 0x5A]) + corrupted[i].data[1:]
                corrupted[i] = Share(index=corrupted[i].index, data=flipped, k=k, m=n)
            result = robust_reconstruct(corrupted)
            assert result.secret == secret
            assert result.secret == scalar_shamir_reconstruct(shares[radius : radius + k])
            assert result.corrupted == frozenset(s.index for s in shares[:radius])

    def test_zero_length_payload(self):
        scheme = ShamirScheme()
        shares = scheme.split(b"", 2, 6, np.random.default_rng(31))
        assert robust_reconstruct(shares).secret == b""
        assert evaluate_shares_at(shares[:2], 0) == b"" == scalar_evaluate_shares_at(shares[:2], 0)


class TestXorEquivalence:
    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_roundtrip_and_determinism(self, n):
        scheme = XorScheme()
        for length in PAYLOAD_LENGTHS:
            secret = payload_of(length, seed=9000 + n + length)
            first = scheme.split(secret, n, n, np.random.default_rng(37))
            second = scheme.split(secret, n, n, np.random.default_rng(37))
            # XOR has no separate batch path; the invariant is determinism
            # plus exact reconstruction from the full (only) share set.
            assert share_bytes(first) == share_bytes(second)
            assert scheme.reconstruct(first) == secret

    def test_split_many_matches_sequential(self):
        scheme = XorScheme()
        secrets = [payload_of(length, seed=90 + length) for length in (0, 1, 37)]
        batched = scheme.split_many(secrets, 4, 4, np.random.default_rng(41))
        rng = np.random.default_rng(41)
        sequential = [scheme.split(secret, 4, 4, rng) for secret in secrets]
        assert [share_bytes(g) for g in batched] == [share_bytes(g) for g in sequential]
        assert scheme.reconstruct_many(batched) == secrets


class TestBlakleyEquivalence:
    # Blakley is big-integer Python either way (no batch path); the grid
    # still runs to n = 10 to honour the (k, n) contract, with a short
    # secret so the general-position sweep stays quick.
    @pytest.mark.parametrize("k,n", [(k, n) for k, n in ALL_KN if k <= 4])
    def test_roundtrip_determinism_and_k_subsets(self, k, n):
        scheme = BlakleyScheme(max_secret_len=8)
        secret = payload_of(min(8, 1 + k), seed=10000 + 31 * k + n)
        first = scheme.split(secret, k, n, np.random.default_rng(43))
        second = scheme.split(secret, k, n, np.random.default_rng(43))
        assert share_bytes(first) == share_bytes(second)
        for subset in combinations(first, k):
            assert scheme.reconstruct(list(subset)) == secret

    def test_empty_and_single_byte_payloads(self):
        scheme = BlakleyScheme(max_secret_len=8)
        for secret in (b"", b"\xff"):
            shares = scheme.split(secret, 3, 5, np.random.default_rng(47))
            assert scheme.reconstruct(shares[1:4]) == secret
