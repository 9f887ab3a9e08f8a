"""Golden vectors for GF(256) arithmetic and the Shamir/ramp pipelines.

Two layers of defence against a silent arithmetic regression:

* **Field vectors.**  Fixed AES-polynomial mul/div/pow triples, asserted
  against the table-driven scalar field, the product-table rows the
  ``bytes.translate`` batch kernels multiply with, *and* re-derived at
  runtime from the independent bit-by-bit
  :func:`repro.gf.gf256._carryless_mul` oracle (which never touches the
  log/antilog tables).  A table-construction bug cannot hide from all
  three at once.
* **Scheme vectors.**  Committed byte-exact Shamir and ramp shares for a
  fixed seed and payload, pinned *before* the vectorized rewrite landed.
  Any change to rng consumption, coefficient layout, or evaluation order
  shows up here as a hex diff, not as a subtly different privacy model.

The kernels XOR short rows as Python ints and long ones in numpy
(:data:`repro.gf.batch.XOR_CROSSOVER`), so the kernel vectors run at row
lengths on both sides of that crossover.
"""

import numpy as np
import pytest

from repro.gf.batch import (
    MUL_ROWS,
    MUL_TABLE,
    XOR_CROSSOVER,
    _lagrange_basis,
    eval_poly_at_points,
    lagrange_interpolate,
)
from repro.gf.gf256 import GF256_FIELD, _carryless_mul
from repro.gf.poly import evaluate
from repro.sharing.base import Share
from repro.sharing.ramp import RampScheme
from repro.sharing.robust import reconstruct_with_erasures, robust_reconstruct
from repro.sharing.shamir import ShamirScheme
from tests.sharing_oracle import lagrange_interpolate_at, scalar_ramp_split, scalar_shamir_split

#: (a, b, a*b) in GF(2^8) under the AES polynomial 0x11b.  The 0x53*0xca=1
#: pair is the classic AES inverse example (FIPS-197 style).
MUL_VECTORS = [
    (0x00, 0x00, 0x00),
    (0x00, 0x37, 0x00),
    (0x01, 0xFF, 0xFF),
    (0x02, 0x80, 0x1B),
    (0x03, 0xF0, 0x0B),
    (0x53, 0xCA, 0x01),
    (0x57, 0x83, 0xC1),
    (0x57, 0x13, 0xFE),
    (0xFF, 0xFF, 0x13),
    (0x80, 0x80, 0x9A),
    (0xB6, 0x53, 0x36),
    (0x0E, 0x0B, 0x62),
]

#: (a, e, a**e); 0**0 = 1 by the usual field convention, x**255 = 1 for
#: nonzero x (the multiplicative group has order 255).
POW_VECTORS = [
    (0x00, 0, 0x01),
    (0x00, 5, 0x00),
    (0x01, 200, 0x01),
    (0x02, 8, 0x1B),
    (0x03, 255, 0x01),
    (0x57, 2, 0xA5),
    (0xCA, 7, 0x89),
    (0xFF, 254, 0x1C),
    (0x35, 3, 0xAB),
]

#: (a, b, a/b).
DIV_VECTORS = [
    (0x00, 0x01, 0x00),
    (0x01, 0x53, 0xCA),
    (0xCA, 0x53, 0x75),
    (0xFF, 0x02, 0xF2),
    (0x57, 0x83, 0x38),
    (0xF0, 0xF0, 0x01),
]

#: 46-byte payload exercised by the scheme vectors: a rising run, a
#: falling run, and ASCII -- enough structure to catch byte-order bugs.
GOLDEN_PAYLOAD = (
    bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    + bytes.fromhex("fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0")
    + b"golden-vector!"
)

GOLDEN_SEED = 20260807

#: Byte-exact Shamir 3-of-5 shares of GOLDEN_PAYLOAD under
#: default_rng(GOLDEN_SEED), committed before the batch rewrite landed.
SHAMIR_3_OF_5 = {
    1: "7a65aa5c25c4f2538ba88e3d34c8dfe46c9e1c2df59b76db36e3aa15929810160f27003c0384ca40e07c1e472824",
    2: "31b0d8fc70ef12cf8704aec42300c712737914d1a16c5dfc3b027c6c41947f8c008e711395b34db5ae44e2d82266",
    3: "4bd470a3512ee69b04a52af21bc516f9e019f500af0dd2dffa17238d20fe9e6a68c61d4bf359aa832b5b88f07863",
    4: "5b87dff9341d9f177358b33435515c580eecf4c04c8618e33b5020c057c0b19243696fbb6e870f61ad4950ab6f80",
    5: "21e377a615dc6b43f0f937020d948db39d8c151142e797c0fa457f2136aa50742b2103e3086de85728563a833585",
}

#: Byte-exact (k=3, L=2, m=5) ramp shares of the same payload and seed.
RAMP_L2_3_OF_5 = {
    1: "2cf21314de59a1b4bbbac9ebc89a5e544bd391747a0456b28f",
    2: "9ac56ac25772b6f5d4df01d35c00022974b66bbd8c181ee8f6",
    3: "b63779f8892a15426b60ce3f9c9356763368f4c609e2b5a682",
    4: "0a79ffbb43c6f8ce5d6036e8b1cbac090910df7b8a0daec258",
    5: "268bec819d9e5b79e2dff9047158f8564ece40000ff7058c2c",
}


class TestFieldVectors:
    def test_mul_vectors_scalar_field(self):
        for a, b, want in MUL_VECTORS:
            assert GF256_FIELD.mul(a, b) == want

    def test_mul_vectors_batch_kernel(self):
        for a, b, want in MUL_VECTORS:
            assert bytes([a]).translate(MUL_ROWS[b]) == bytes([want])

    def test_mul_vectors_match_carryless_oracle(self):
        # The oracle never touches the log/exp tables, so a table bug
        # cannot agree with it by accident.
        for a, b, want in MUL_VECTORS:
            assert _carryless_mul(a, b) == want

    def test_pow_vectors(self):
        for a, e, want in POW_VECTORS:
            assert GF256_FIELD.pow(a, e) == want

    def test_pow_vectors_match_carryless_oracle(self):
        for a, e, want in POW_VECTORS:
            acc = 1
            for _ in range(e):
                acc = _carryless_mul(acc, a)
            assert acc == want

    def test_div_vectors(self):
        for a, b, want in DIV_VECTORS:
            assert GF256_FIELD.div(a, b) == want

    def test_div_vectors_match_carryless_oracle(self):
        # a/b == w  <=>  w*b == a, checked bit-by-bit.
        for a, b, want in DIV_VECTORS:
            assert _carryless_mul(want, b) == a

    def test_full_mul_table_matches_carryless_oracle(self):
        # Exhaustive 256x256 sweep of the kernels' translate tables
        # against the oracle: row a applied to every field element.
        grid = bytes(range(256))
        batch = [grid.translate(MUL_ROWS[a]) for a in range(256)]
        oracle = [bytes([_carryless_mul(a, b) for b in range(256)]) for a in range(256)]
        assert batch == oracle

    def test_mul_table_pinned_to_carryless_oracle(self):
        # All 65536 product-table entries, read directly rather than
        # through a kernel, so a table-construction bug has nowhere to hide.
        assert MUL_TABLE.shape == (256, 256) and MUL_TABLE.dtype == np.uint8
        for a in range(256):
            for b in range(256):
                assert MUL_TABLE[a, b] == _carryless_mul(a, b), (a, b)


def _rows(ys):
    """The byte rows of a 2-D uint8 array, the form the kernels take."""
    return [row.tobytes() for row in ys]


def _points_oracle(nodes, ys, x):
    """Byte-wise scalar Lagrange evaluation through the generic poly code."""
    return bytes(
        lagrange_interpolate_at(GF256_FIELD, list(zip(nodes, column)), x)
        for column in zip(*ys)
    )


#: Row lengths on the int engine (29 and the crossover - 1) and on the
#: numpy engine (the crossover itself).
ROW_LENGTHS = [29, XOR_CROSSOVER - 1, XOR_CROSSOVER]


class TestLagrangeBasisCache:
    NODES = [(1, 2), (3, 1, 2), (5, 4, 2, 7), (200, 17, 255, 1, 9)]

    @pytest.mark.parametrize("size", ROW_LENGTHS)
    @pytest.mark.parametrize("nodes", NODES)
    @pytest.mark.parametrize("x", [0, 6, 254])
    def test_repeated_calls_match_scalar_oracle(self, nodes, x, size):
        rng = np.random.default_rng(len(nodes) * 1000 + x)
        for _ in range(3):
            ys = rng.integers(0, 256, size=(len(nodes), size), dtype=np.uint8)
            got = lagrange_interpolate(np.array(nodes, dtype=np.uint8), _rows(ys), x)
            assert got == _points_oracle(nodes, ys.tolist(), x)

    @pytest.mark.parametrize("size", [4, XOR_CROSSOVER])
    def test_evaluating_at_a_node_returns_that_share(self, size):
        ys = (np.arange(3 * size) % 256).astype(np.uint8).reshape(3, size)
        got = lagrange_interpolate(np.array([4, 9, 2], dtype=np.uint8), _rows(ys), 9)
        assert got == ys[1].tobytes()

    def test_mutating_results_does_not_poison_the_cache(self):
        nodes = np.array([1, 2, 3], dtype=np.uint8)
        ys = _rows(np.arange(15, dtype=np.uint8).reshape(3, 5))
        first = bytearray(lagrange_interpolate(nodes, ys, 0))
        want = bytes(first)
        first[:] = bytes(byte ^ 0xFF for byte in first)
        assert lagrange_interpolate(nodes, ys, 0) == want
        assert isinstance(_lagrange_basis((1, 2, 3), 0), tuple)

    def test_cache_is_bounded(self):
        assert _lagrange_basis.cache_info().maxsize is not None

    def test_duplicate_nodes_rejected(self):
        ys = [bytes(3)] * 2
        with pytest.raises(ValueError, match="distinct"):
            lagrange_interpolate([5, 5], ys, 0)
        with pytest.raises(ValueError, match="distinct"):
            lagrange_interpolate([5, 5], ys, 5)

    def test_empty_node_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            lagrange_interpolate([], [], 0)


def _evaluation_oracle(coeffs, x):
    """Byte-wise scalar Horner evaluation through the generic poly code."""
    return bytes(evaluate(GF256_FIELD, column, x) for column in zip(*coeffs))


class TestEvaluationEngines:
    @pytest.mark.parametrize("size", ROW_LENGTHS)
    @pytest.mark.parametrize("points", [(), (1,), (3, 1), (1, 2, 3), (200, 17, 255, 1, 9)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_scalar_oracle(self, points, k, size):
        rng = np.random.default_rng(100 * k + len(points))
        coeffs = [rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(k)]
        assert eval_poly_at_points(coeffs, points) == [
            _evaluation_oracle(coeffs, x) for x in points
        ]


class TestInputValidation:
    @pytest.mark.parametrize("x", [256, -1, 2.5, "0", None])
    def test_evaluation_point_outside_field(self, x):
        ys = [bytes(3)] * 2
        with pytest.raises(ValueError, match="0..255"):
            lagrange_interpolate([1, 3], ys, x)

    def test_numpy_integer_point_accepted(self):
        ys = [b"\x07", b"\x09"]
        assert lagrange_interpolate([1, 3], ys, np.uint8(0)) == lagrange_interpolate(
            [1, 3], ys, 0
        )

    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros((2, 3), dtype=np.uint8),
            [np.zeros(3, dtype=np.uint8)] * 2,
            [[0, 0, 0], [0, 0, 0]],
            [b"abc", b"ab"],
            [b"abc", "abc"],
            [],
        ],
        ids=["2-d array", "array rows", "int lists", "ragged", "str row", "empty"],
    )
    def test_only_equal_length_byte_rows_accepted(self, rows):
        with pytest.raises(ValueError, match="byte strings"):
            eval_poly_at_points(rows, [1, 2])
        with pytest.raises(ValueError, match="byte strings"):
            lagrange_interpolate([1, 3], rows, 0)

    def test_negative_error_budget_rejected(self):
        shares = ShamirScheme().split(b"abc", 2, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-negative"):
            reconstruct_with_erasures(shares, errors=-1)
        with pytest.raises(ValueError, match="non-negative"):
            robust_reconstruct(shares, errors=-1)


class TestSchemeVectors:
    @pytest.mark.parametrize("engine", ["int", "numpy"])
    def test_kernels_reproduce_pinned_shamir_shares(self, engine):
        # Byte columns are independent polynomials, so tiling the columns
        # tiles the shares: 46-byte rows XOR as ints, and enough tiles to
        # reach the crossover XOR in numpy.
        tiles = 1 if engine == "int" else -(-XOR_CROSSOVER // len(GOLDEN_PAYLOAD))
        assert (len(GOLDEN_PAYLOAD) * tiles < XOR_CROSSOVER) == (engine == "int")
        draw = np.random.default_rng(GOLDEN_SEED).bytes(2 * len(GOLDEN_PAYLOAD))
        rows = [GOLDEN_PAYLOAD, draw[: len(GOLDEN_PAYLOAD)], draw[len(GOLDEN_PAYLOAD) :]]
        shares = eval_poly_at_points([row * tiles for row in rows], range(1, 6))
        assert [row.hex() for row in shares] == [SHAMIR_3_OF_5[x] * tiles for x in range(1, 6)]
        pinned = [bytes.fromhex(SHAMIR_3_OF_5[x]) * tiles for x in (2, 4, 5)]
        assert lagrange_interpolate((2, 4, 5), pinned, 0) == GOLDEN_PAYLOAD * tiles

    def test_shamir_split_pinned(self):
        shares = ShamirScheme().split(
            GOLDEN_PAYLOAD, 3, 5, np.random.default_rng(GOLDEN_SEED)
        )
        assert {s.index: s.data.hex() for s in shares} == SHAMIR_3_OF_5

    def test_shamir_scalar_reference_split_pinned(self):
        shares = scalar_shamir_split(
            GOLDEN_PAYLOAD, 3, 5, np.random.default_rng(GOLDEN_SEED)
        )
        assert {s.index: s.data.hex() for s in shares} == SHAMIR_3_OF_5

    def test_shamir_reconstruct_from_pinned_shares(self):
        shares = [
            Share(index=i, data=bytes.fromhex(hexdata), k=3, m=5)
            for i, hexdata in SHAMIR_3_OF_5.items()
        ]
        scheme = ShamirScheme()
        assert scheme.reconstruct(shares[:3]) == GOLDEN_PAYLOAD
        assert scheme.reconstruct(shares[2:]) == GOLDEN_PAYLOAD

    def test_ramp_split_pinned(self):
        shares = RampScheme(blocks=2).split(
            GOLDEN_PAYLOAD, 3, 5, np.random.default_rng(GOLDEN_SEED)
        )
        assert {s.index: s.data.hex() for s in shares} == RAMP_L2_3_OF_5

    def test_ramp_scalar_reference_split_pinned(self):
        shares = scalar_ramp_split(
            GOLDEN_PAYLOAD, 3, 5, np.random.default_rng(GOLDEN_SEED), blocks=2
        )
        assert {s.index: s.data.hex() for s in shares} == RAMP_L2_3_OF_5

    def test_ramp_reconstruct_from_pinned_shares(self):
        shares = [
            Share(index=i, data=bytes.fromhex(hexdata), k=3, m=5)
            for i, hexdata in RAMP_L2_3_OF_5.items()
        ]
        assert RampScheme(blocks=2).reconstruct(shares[:3]) == GOLDEN_PAYLOAD
