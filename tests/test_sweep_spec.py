"""SweepSpec/SweepPoint semantics: enumeration, identity, seed derivation."""

import hashlib
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.sweep import SweepPoint, SweepSpec, canonical_json, derive_seed

#: The src/ directory, for subprocess PYTHONPATH regardless of test cwd.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestCanonicalJson:
    def test_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_floats_round_trip_stably(self):
        assert canonical_json({"mu": 0.1 + 0.2}) == '{"mu":0.30000000000000004}'

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestSweepSpec:
    def test_grid_enumerates_in_list_order(self):
        # A comprehension writes a cartesian product, outer loop first.
        spec = SweepSpec("s", grid=[{"a": a, "b": b} for a in (1, 2) for b in (10, 20)])
        combos = [(p.params["a"], p.params["b"]) for p in spec]
        assert combos == [(1, 10), (1, 20), (2, 10), (2, 20)]
        assert [p.index for p in spec] == [0, 1, 2, 3]
        assert len(spec) == 4

    def test_generator_grid_is_materialised_once(self):
        spec = SweepSpec("s", grid=({"x": x} for x in range(3)))
        assert len(spec) == 3
        assert spec.points() == spec.points()
        assert [p.params["x"] for p in spec] == [0, 1, 2]

    def test_grid_entries_are_copied(self):
        entry = {"a": 1}
        base = {"b": 2}
        spec = SweepSpec("s", grid=[entry], base=base)
        entry["a"] = 99
        base["b"] = 99
        assert spec.points()[0].params == {"a": 1, "b": 2}

    def test_empty_grid_has_no_points(self):
        spec = SweepSpec("s", grid=[], base={"b": 1})
        assert len(spec) == 0
        assert spec.points() == []

    def test_non_finite_grid_value_fails_at_enumeration(self):
        # Params must hash canonically, so a NaN/inf point never gets a
        # seed or a cache key.
        spec = SweepSpec("s", grid=[{"x": 1.0}, {"x": float("inf")}])
        with pytest.raises(ValueError):
            spec.points()

    def test_axes_keyword_is_gone(self):
        # One grid form: the explicit list.
        with pytest.raises(TypeError):
            SweepSpec("s", axes={"a": [1, 2]})

    def test_base_merged_into_every_point(self):
        spec = SweepSpec("s", grid=[{"a": 1}], base={"duration": 5.0})
        assert spec.points()[0].params == {"duration": 5.0, "a": 1}

    def test_explicit_grid_for_coupled_axes(self):
        grid = [{"kappa": 1.0, "mu": 1.0}, {"kappa": 2.0, "mu": 3.5}]
        spec = SweepSpec("s", grid=grid, base={"seed": 1})
        assert len(spec) == 2
        assert spec.points()[1].params == {"seed": 1, "kappa": 2.0, "mu": 3.5}

    def test_shadow_error_text_is_sorted(self):
        # The shadowed names are collected into a set; the message must
        # sort them so the error text is byte-identical across runs
        # regardless of hash seed (PYTHONHASHSEED) or insertion order.
        with pytest.raises(ValueError, match=r"\['alpha', 'beta', 'gamma'\]"):
            SweepSpec(
                "s",
                grid=[{"gamma": 1, "alpha": 2}, {"beta": 3}],
                base={"beta": 0, "gamma": 0, "alpha": 0, "keep": 1},
            )

    def test_points_are_picklable(self):
        point = SweepSpec("s", grid=[{"a": 1}], base={"b": 2.5}).points()[0]
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert clone.seed == point.seed


class TestSeedDerivation:
    def test_seed_depends_on_identity_not_index(self):
        a = SweepPoint("s", 0, {"kappa": 1.0})
        b = SweepPoint("s", 7, {"kappa": 1.0})
        assert a.seed == b.seed

    def test_distinct_params_distinct_seeds(self):
        # The ad-hoc arithmetic this replaces collided e.g. (kappa+1, mu)
        # with (kappa, mu+100): hash-derived seeds keep all points distinct.
        spec = SweepSpec(
            "fig", grid=[{"kappa": k, "mu": m} for k in (1.0, 2.0, 3.0)
                         for m in (1.0, 1.1, 2.0, 101.0)]
        )
        seeds = [p.seed for p in spec]
        assert len(set(seeds)) == len(seeds)

    def test_spec_id_separates_seed_streams(self):
        assert derive_seed("fig3", {"a": 1}) != derive_seed("fig4", {"a": 1})

    def test_seed_stable_across_processes(self):
        params = {"kappa": 2.0, "mu": 3.3, "seed": 42}
        expected = derive_seed("fig3/identical", params)
        script = (
            "from repro.sweep import derive_seed; "
            f"print(derive_seed('fig3/identical', {params!r}))"
        )
        for hashseed in ("0", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": hashseed},
                check=True,
            )
            assert int(out.stdout.strip()) == expected

    def test_seed_fits_numpy_default_rng(self):
        import numpy as np

        np.random.default_rng(SweepPoint("s", 0, {"x": 1}).seed)


def test_registered_sweeps_are_pinned():
    # Every registered sweep's points, order and seeds, at the paper's
    # grid and the quick grid: the figure goldens and CSVs cover only
    # small grids, and a seed or cache key that moves moves a figure.
    from repro.experiments import SWEEPS

    digest = hashlib.sha256()
    for name in sorted(SWEEPS):
        build, _ = SWEEPS[name]
        for kwargs in ({}, {"quick": True}):
            for p in build(**kwargs):
                digest.update(f"{p.index}:{p.identity()}:{p.seed}\n".encode())
    assert digest.hexdigest() == (
        "4359588e52431e8663ef52d90e559ab8c12090cb14e4d7c7c3414ff75682be92"
    )
