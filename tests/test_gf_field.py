"""Field axioms and arithmetic for GF(2^8) and prime fields."""

import pytest
from hypothesis import given

from hypothesis import strategies as st

from repro.gf.field import Field
from repro.gf.gf256 import GF256_FIELD, _carryless_mul

from repro.gf.gfp import PrimeField, is_prime, next_prime

gf256_elems = st.integers(min_value=0, max_value=255)
gfp_elems = st.integers(min_value=0, max_value=250)  # within GF(251)

GF251 = PrimeField(251)


@pytest.fixture(params=["gf256", "gf251"])
def field(request) -> Field:
    return GF256_FIELD if request.param == "gf256" else GF251


def elems(field: Field):
    return st.integers(min_value=0, max_value=field.order - 1)


class TestGF256Tables:
    def test_table_mul_matches_carryless_oracle(self):
        f = GF256_FIELD
        for a in range(0, 256, 7):
            for b in range(0, 256, 5):
                assert f.mul(a, b) == _carryless_mul(a, b)

    def test_known_aes_product(self):
        # 0x57 * 0x83 = 0xc1 under the AES polynomial (FIPS-197 example).
        assert GF256_FIELD.mul(0x57, 0x83) == 0xC1

    def test_inverse_of_one_is_one(self):
        assert GF256_FIELD.inv(1) == 1

    def test_every_nonzero_element_has_inverse(self):
        f = GF256_FIELD
        for a in range(1, 256):
            assert f.mul(a, f.inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GF256_FIELD.inv(0)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256_FIELD.div(7, 0)

    def test_add_is_xor(self):
        assert GF256_FIELD.add(0b1010, 0b0110) == 0b1100

    def test_characteristic_two_self_inverse(self):
        f = GF256_FIELD
        for a in range(256):
            assert f.add(a, a) == 0
            assert f.neg(a) == a


@given(a=gf256_elems, b=gf256_elems, c=gf256_elems)
def test_gf256_ring_axioms(a, b, c):
    f = GF256_FIELD
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(a=gf256_elems)
def test_gf256_identities(a):
    f = GF256_FIELD
    assert f.add(a, 0) == a
    assert f.mul(a, 1) == a
    assert f.mul(a, 0) == 0
    assert f.sub(a, a) == 0


@given(a=st.integers(min_value=1, max_value=255), b=st.integers(min_value=1, max_value=255))
def test_gf256_div_inverts_mul(a, b):
    f = GF256_FIELD
    assert f.div(f.mul(a, b), b) == a


@given(a=gfp_elems, b=gfp_elems, c=gfp_elems)
def test_gfp_ring_axioms(a, b, c):
    f = GF251
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(a=st.integers(min_value=1, max_value=250))
def test_gfp_inverse(a):
    f = GF251
    assert f.mul(a, f.inv(a)) == 1


class TestFieldHelpers:
    def test_pow_matches_repeated_mul(self, field):
        a = 3 % field.order
        acc = 1
        for exponent in range(10):
            assert field.pow(a, exponent) == acc
            acc = field.mul(acc, a)

    def test_pow_negative_exponent(self, field):
        a = 5 % field.order
        assert field.mul(field.pow(a, -3), field.pow(a, 3)) == 1

    def test_contains(self, field):
        assert 0 in field
        assert field.order not in field
        assert "x" not in field

    def test_contains_is_the_canonical_range(self, field):
        # ``analysis.secrecy`` checks share abscissae with ``in``, so the
        # test must accept every canonical element and nothing else.
        assert all(a in field for a in range(field.order))
        assert field.order - 1 in field
        assert -1 not in field
        assert field.order + 1 not in field
        assert 1.0 not in field
        assert None not in field


class TestPrimality:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
        for n in range(45):
            assert is_prime(n) == (n in primes)

    def test_is_prime_large(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**61 + 1)

    def test_next_prime(self):
        assert next_prime(2) == 2
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(256**2) > 256**2

    def test_prime_field_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(256)

    def test_prime_field_equality_and_hash(self):
        assert PrimeField(251) == PrimeField(251)
        assert PrimeField(251) != PrimeField(257)
        assert hash(PrimeField(251)) == hash(PrimeField(251))
