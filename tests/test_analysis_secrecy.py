"""Exact perfect-secrecy verification over small fields and GF(2^8)."""

import itertools
import math

import numpy as np
import pytest

from repro.analysis.secrecy import (
    entropy,
    joint_distribution,
    mutual_information,
    verify_perfect_secrecy,
)
from repro.gf.batch import XOR_CROSSOVER, eval_poly_at_points
from repro.gf.gfp import PrimeField
from repro.sharing.shamir import ShamirScheme
from repro.sharing.xor import XorScheme

GF5 = PrimeField(5)
GF7 = PrimeField(7)
GF11 = PrimeField(11)


class TestEntropy:
    def test_uniform(self):
        assert entropy([0.25] * 4) == pytest.approx(2.0)

    def test_deterministic(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy([-0.1, 1.1])


class TestJointDistribution:
    def test_probabilities_sum_to_one(self):
        joint = joint_distribution(GF5, 2, [1, 2])
        assert sum(joint.values()) == pytest.approx(1.0)

    def test_secret_marginal_uniform(self):
        joint = joint_distribution(GF7, 3, [1, 2])
        marginal = {}
        for (secret, _), p in joint.items():
            marginal[secret] = marginal.get(secret, 0.0) + p
        assert all(p == pytest.approx(1 / 7) for p in marginal.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_distribution(GF5, 0, [1])
        with pytest.raises(ValueError):
            joint_distribution(GF5, 2, [1, 1])
        with pytest.raises(ValueError):
            joint_distribution(GF5, 2, [0])
        with pytest.raises(ValueError):
            joint_distribution(GF5, 2, [7])

    def test_enumeration_size_guard(self):
        big = PrimeField(127)
        with pytest.raises(ValueError):
            joint_distribution(big, 4, [1])


class TestMutualInformation:
    @pytest.mark.parametrize("field", [GF5, GF7])
    @pytest.mark.parametrize("k", [2, 3])
    def test_below_threshold_is_exactly_zero(self, field, k):
        for count in range(1, k):
            xs = list(range(1, count + 1))
            joint = joint_distribution(field, k, xs)
            assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("field", [GF5, GF7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_at_threshold_reveals_everything(self, field, k):
        xs = list(range(1, k + 1))
        joint = joint_distribution(field, k, xs)
        assert mutual_information(joint) == pytest.approx(
            math.log2(field.order), abs=1e-9
        )

    def test_beyond_threshold_no_extra_information(self):
        joint = joint_distribution(GF5, 2, [1, 2, 3])
        assert mutual_information(joint) == pytest.approx(math.log2(5), abs=1e-9)

    def test_nonconsecutive_observation_points(self):
        # Which shares are observed must not matter, only how many.
        joint_a = joint_distribution(GF11, 3, [1, 5])
        joint_b = joint_distribution(GF11, 3, [2, 9])
        assert mutual_information(joint_a) == pytest.approx(
            mutual_information(joint_b), abs=1e-12
        )
        assert mutual_information(joint_a) == pytest.approx(0.0, abs=1e-12)


class TestVerifyPerfectSecrecy:
    @pytest.mark.parametrize("field,k,m", [(GF5, 2, 4), (GF7, 3, 5), (GF11, 2, 3)])
    def test_shamir_is_perfectly_secret(self, field, k, m):
        report = verify_perfect_secrecy(field, k, m)
        assert report.perfectly_secret
        assert report.leakage_below_threshold == pytest.approx(0.0, abs=1e-12)
        assert report.information_at_threshold == pytest.approx(
            math.log2(field.order), abs=1e-9
        )
        assert report.uniform_marginals

    def test_k_equals_one_broadcast(self):
        # k = 1: a single share IS the secret; still "perfect" in the
        # degenerate sense (no below-threshold observations exist).
        report = verify_perfect_secrecy(GF5, 1, 3)
        assert report.perfectly_secret

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_perfect_secrecy(GF5, 3, 2)
        with pytest.raises(ValueError):
            verify_perfect_secrecy(GF5, 2, 5)  # m must stay below |F|


class TestProductionKernel:
    """Exact secrecy of the GF(2^8) code that ``ShamirScheme`` runs.

    ``split`` evaluates shares with ``eval_poly_at_points`` (one
    ``bytes.translate`` by a ``MUL_ROWS[x^j]`` product-table row per share
    point and coefficient, then one XOR) and ``reconstruct`` interpolates
    with cached Lagrange bases, so these enumerate that code rather than
    the small-field algebra above -- on both XOR engines: every coefficient
    tuple goes through rows shorter than the crossover (Python ints) and
    through rows at least that long (numpy).
    """

    M = 5

    @pytest.mark.parametrize("k", [2, 3])
    def test_fewer_than_k_shares_reveal_nothing(self, k):
        # Every coefficient tuple (a_1, ..., a_{k-1}) is one column of the
        # batch, and each pass fixes one secret: all of GF(256)^k in total.
        tuples = 256 ** (k - 1)
        coeffs = np.indices((256,) * (k - 1)).reshape(k - 1, tuples).astype(np.uint8)
        higher = [row.tobytes() for row in coeffs]
        # The int engine sees the columns in slices below the crossover;
        # the numpy engine sees them repeated up to at least the crossover.
        width = XOR_CROSSOVER - 1
        slices = [
            [row[start : start + width] for row in higher] for start in range(0, tuples, width)
        ]
        repeats = -(-XOR_CROSSOVER // tuples)
        points = range(1, self.M + 1)
        subsets = list(itertools.combinations(range(self.M), k - 1))
        for secret in range(256):
            constant = bytes([secret]) * width
            sliced = [
                eval_poly_at_points([constant[: len(rows[0])], *rows], points) for rows in slices
            ]
            rows = [b"".join(parts) for parts in zip(*sliced)]
            whole = [bytes([secret]) * tuples * repeats] + [row * repeats for row in higher]
            assert eval_poly_at_points(whole, points) == [row * repeats for row in rows], secret
            shares = np.frombuffer(b"".join(rows), np.uint8).reshape(self.M, tuples)
            shares = shares.astype(np.int64)
            for subset in subsets:
                code = np.zeros(tuples, dtype=np.int64)
                for index in subset:
                    code = code * 256 + shares[index]
                # Each observable share tuple comes from exactly one
                # coefficient tuple, so the k-1 shares are uniform whatever
                # the secret: I(secret; shares) = 0 exactly.
                assert (np.bincount(code, minlength=tuples) == 1).all(), (secret, subset)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_any_k_shares_reconstruct_every_byte(self, k):
        scheme = ShamirScheme()
        secret = bytes(range(256))
        shares = scheme.split(secret, k, self.M, np.random.default_rng(k))
        for group in itertools.combinations(shares, k):
            assert scheme.reconstruct(group) == secret


class _Rows:
    """A byte source that serves fixed rows in order: the enumerated pads."""

    def __init__(self, rows):
        self._rows = list(rows)

    def bytes(self, n):
        row = self._rows.pop(0)
        assert len(row) == n
        return row


class TestXorSchemeSecrecy:
    """Exact secrecy of the (n, n) XOR scheme on the code ``split`` runs."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_any_n_minus_one_shares_reveal_nothing(self, n):
        # Every pad tuple is one column, served through a byte source, and
        # each pass fixes one secret: all of GF(256)^n in total.
        tuples = 256 ** (n - 1)
        pads = np.indices((256,) * (n - 1)).reshape(n - 1, tuples).astype(np.uint8)
        subsets = list(itertools.combinations(range(n), n - 1))
        for secret in range(256):
            source = _Rows([row.tobytes() for row in pads])
            shares = XorScheme().split(bytes([secret]) * tuples, n, n, source)
            values = np.array([np.frombuffer(share.data, np.uint8) for share in shares])
            values = values.astype(np.int64)
            for subset in subsets:
                code = np.zeros(tuples, dtype=np.int64)
                for index in subset:
                    code = code * 256 + values[index]
                # Every (n-1)-share tuple occurs exactly once whatever the
                # secret: the same uniform histogram for all 256 secrets.
                assert (np.bincount(code, minlength=tuples) == 1).all(), (secret, subset)


class TestRampSecrecy:
    """Exact graded leakage of the (k=3, L=2, m=4) ramp kernel.

    ``RampScheme.split`` evaluates coefficient rows (b0, b1, r): the two
    secret blocks and one uniform row.  Columns enumerate (b1, r) and each
    pass fixes b0, so all of GF(256)^3 goes through ``eval_poly_at_points``.
    """

    M = 4

    def test_one_share_leaks_nothing_and_two_leak_one_block(self):
        columns = np.indices((256, 256)).reshape(2, 65536).astype(np.uint8)
        b1_row, r_row = (row.tobytes() for row in columns)
        pairs = list(itertools.combinations(range(self.M), 2))
        histograms = {pair: np.zeros(65536, dtype=np.int64) for pair in pairs}
        for b0 in range(256):
            rows = [bytes([b0]) * 65536, b1_row, r_row]
            shares = eval_poly_at_points(rows, range(1, self.M + 1))
            values = np.array([np.frombuffer(row, np.uint8) for row in shares]).astype(np.int64)
            # For every secret pair (b0, b1), each share is a bijection of r:
            # every value once, so one share carries 0 bits.
            by_secret = np.sort(values.reshape(self.M, 256, 256), axis=2)
            assert (by_secret == np.arange(256)).all(), b0
            for a, b in pairs:
                histograms[(a, b)] += np.bincount(values[a] * 256 + values[b], minlength=65536)
        # Two shares take 256 distinct values per secret pair (the bijection
        # above), and over all 2^24 tuples every observed pair occurs exactly
        # 256 times: H(pair) = 16 bits, H(pair | secret) = 8 bits, so two
        # shares carry exactly 8 of the secret's 16 bits.
        for pair, histogram in histograms.items():
            assert (histogram == 256).all(), pair
