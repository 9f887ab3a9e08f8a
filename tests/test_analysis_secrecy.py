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
from repro.gf.batch import eval_poly_at_points
from repro.gf.gfp import PrimeField
from repro.sharing.shamir import ShamirScheme

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

    ``split`` evaluates shares with ``eval_poly_at_points`` (XOR-Horner
    over the product table) and ``reconstruct`` interpolates with cached
    Lagrange bases, so these enumerate that code rather than the
    small-field algebra above.
    """

    M = 5

    @pytest.mark.parametrize("k", [2, 3])
    def test_fewer_than_k_shares_reveal_nothing(self, k):
        # Every coefficient tuple (a_1, ..., a_{k-1}) is one column of the
        # batch, and each pass fixes one secret: all of GF(256)^k in total.
        tuples = 256 ** (k - 1)
        coeffs = np.empty((k, tuples), dtype=np.uint8)
        coeffs[1:] = np.indices((256,) * (k - 1)).reshape(k - 1, tuples)
        points = np.arange(1, self.M + 1, dtype=np.uint8)
        subsets = list(itertools.combinations(range(self.M), k - 1))
        for secret in range(256):
            coeffs[0] = secret
            shares = eval_poly_at_points(coeffs, points).astype(np.int64)
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
