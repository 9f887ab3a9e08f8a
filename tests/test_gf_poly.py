"""Polynomial evaluation over finite fields, and the oracle's Lagrange
interpolation (``tests/sharing_oracle.py``)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf.gf256 import GF256_FIELD
from repro.gf.gfp import PrimeField
from repro.gf.poly import evaluate
from tests.sharing_oracle import lagrange_interpolate_at

GF251 = PrimeField(251)


class TestEvaluate:
    def test_constant(self):
        assert evaluate(GF256_FIELD, [42], 17) == 42

    def test_empty_coefficients_is_zero(self):
        assert evaluate(GF256_FIELD, [], 5) == 0

    def test_linear_over_prime_field(self):
        # 3 + 5x at x=10 mod 251 = 53
        assert evaluate(GF251, [3, 5], 10) == 53

    def test_horner_matches_naive(self):
        f = GF251
        coeffs = [7, 0, 3, 9]
        for x in range(0, 50, 7):
            naive = 0
            for power, c in enumerate(coeffs):
                naive = f.add(naive, f.mul(c, f.pow(x, power)))
            assert evaluate(f, coeffs, x) == naive


class TestInterpolation:
    def test_recovers_polynomial_through_points(self):
        f = GF251
        coeffs = (17, 42, 7)
        points = [(x, evaluate(f, coeffs, x)) for x in (1, 2, 3)]
        for x in range(20):
            assert lagrange_interpolate_at(f, points, x) == evaluate(f, coeffs, x)

    def test_interpolate_at_zero_recovers_constant_term(self):
        f = GF256_FIELD
        coeffs = (99, 3, 250)
        points = [(x, evaluate(f, coeffs, x)) for x in (1, 5, 9)]
        assert lagrange_interpolate_at(f, points, 0) == 99

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate_at(GF251, [(1, 2), (1, 3)], 0)

    def test_single_point_is_constant(self):
        assert lagrange_interpolate_at(GF251, [(5, 123)], 77) == 123

    @given(
        coeffs=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=5),
        extra=st.integers(min_value=0, max_value=255),
    )
    def test_roundtrip_gf256(self, coeffs, extra):
        f = GF256_FIELD
        xs = list(range(1, len(coeffs) + 1))
        points = [(x, evaluate(f, coeffs, x)) for x in xs]
        assert lagrange_interpolate_at(f, points, 0) == coeffs[0]
        # Interpolating at a sample point returns that sample.
        assert lagrange_interpolate_at(f, points, xs[0]) == points[0][1]
        del extra

    @given(degree=st.integers(min_value=0, max_value=4))
    def test_interpolated_polynomial_degree_bound(self, degree):
        # degree + 1 points fix a polynomial of degree at most ``degree``:
        # the interpolant is the sampled polynomial everywhere, not just at
        # the sample points.
        f = GF251
        coeffs = tuple(range(1, degree + 2))
        points = [(x, evaluate(f, coeffs, x)) for x in range(1, degree + 2)]
        for x in range(0, f.order, 10):
            assert lagrange_interpolate_at(f, points, x) == evaluate(f, coeffs, x)
