"""ResultCache: key stability, fingerprint invalidation, corruption, resume."""

import json
import os
import subprocess
import sys

import pytest

from repro.sweep import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    SweepRunner,
    SweepSpec,
    code_fingerprint,
    open_cache,
    values,
)


import repro

#: The src/ directory, for subprocess PYTHONPATH regardless of test cwd.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def square_point(params, seed):
    return {"square": params["x"] ** 2}


def poison_point(params, seed):
    if params["x"] == 2:
        raise ValueError("poisoned point")
    return {"x": params["x"]}


def logging_point(params, seed):
    """Records every actual computation so resume tests can count them."""
    with open(os.path.join(params["dir"], "computed.log"), "a") as handle:
        handle.write(f"{params['x']}\n")
    return {"x": params["x"]}


def _spec(tmp_path=None, xs=(1, 2, 3, 4, 5)):
    base = {"dir": str(tmp_path)} if tmp_path is not None else {}
    return SweepSpec("cachespec", grid=[{"x": x} for x in xs], base=base)


def _computed(tmp_path):
    log = tmp_path / "computed.log"
    if not log.exists():
        return []
    return [int(line) for line in log.read_text().splitlines()]


class TestKeys:
    def test_key_stable_across_runs(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        point = _spec().points()[0]
        assert cache.key(point) == ResultCache(str(tmp_path), fingerprint="f1").key(point)

    def test_key_stable_across_processes(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        point = _spec().points()[0]
        script = (
            "from repro.sweep import ResultCache, SweepSpec; "
            "spec = SweepSpec('cachespec', grid=[{'x': x} for x in (1, 2, 3, 4, 5)]); "
            f"print(ResultCache({str(tmp_path)!r}, fingerprint='f1').key(spec.points()[0]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": "999"},
            check=True,
        )
        assert out.stdout.strip() == cache.key(point)

    def test_key_covers_params_spec_and_fingerprint(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        p1, p2 = _spec().points()[:2]
        assert cache.key(p1) != cache.key(p2)
        other_spec = SweepSpec("otherspec", grid=[{"x": 1}]).points()[0]
        assert cache.key(p1) != cache.key(other_spec)
        assert cache.key(p1) != ResultCache(str(tmp_path), fingerprint="f2").key(p1)

    def test_code_fingerprint_is_hexdigest(self):
        fingerprint = code_fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)

    def test_code_fingerprint_ignores_the_environment(self, monkeypatch):
        # Only the sources decide the fingerprint: no variable can pin a
        # stale cache across a code change.
        expected = code_fingerprint()
        monkeypatch.setenv("REPRO_SWEEP_FINGERPRINT", "pinned")
        code_fingerprint.cache_clear()
        try:
            assert code_fingerprint() == expected
            assert ResultCache("unused").fingerprint == expected
        finally:
            code_fingerprint.cache_clear()

    def test_spec_id_slash_stays_one_directory(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        point = SweepSpec("fig3/identical", grid=[{"x": 1}]).points()[0]
        assert cache.path(point) == os.path.join(
            str(tmp_path), "fig3_identical", cache.key(point) + ".json"
        )


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        point = _spec().points()[0]
        path = cache.put(point, {"square": 1}, duration=0.5)
        assert os.path.exists(path)
        entry = cache.get(point)
        assert entry["value"] == {"square": 1}
        assert entry["duration"] == 0.5
        assert entry["params"] == dict(point.params)

    def test_entry_records_the_point(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        point = _spec().points()[1]
        path = cache.put(point, {"square": 4}, 0.25)
        assert path == os.path.join(str(tmp_path), "cachespec", cache.key(point) + ".json")
        with open(path) as handle:
            entry = json.load(handle)
        assert entry == {
            "key": cache.key(point),
            "spec_id": "cachespec",
            "params": {"x": 2},
            "fingerprint": "f1",
            "seed": point.seed,
            "value": {"square": 4},
            "duration": 0.25,
        }

    def test_fingerprint_change_invalidates(self, tmp_path):
        point = _spec().points()[0]
        ResultCache(str(tmp_path), fingerprint="f1").put(point, {"square": 1}, 0.0)
        assert ResultCache(str(tmp_path), fingerprint="f2").get(point) is None

    def test_values_round_trip_floats_exactly(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        point = _spec().points()[0]
        value = {"ratio": 0.1 + 0.2, "rate": 493.75}
        cache.put(point, value, 0.0)
        assert cache.get(point)["value"] == value


class TestOpenCache:
    """The one rule both sweep front ends follow: ``--resume`` or
    ``--cache-dir`` alone turns the cache on."""

    def test_off_without_resume_or_cache_dir(self):
        assert open_cache(False, None) is None

    @pytest.mark.parametrize(
        "resume,cache_dir,root",
        [(True, None, DEFAULT_CACHE_DIR), (False, "d", "d"), (True, "d", "d")],
        ids=["resume", "cache-dir", "both"],
    )
    def test_on_with_resume_or_cache_dir(self, resume, cache_dir, root):
        cache = open_cache(resume, cache_dir)
        assert isinstance(cache, ResultCache)
        assert cache.root == root
        assert cache.fingerprint == code_fingerprint()


class TestCorruption:
    def test_truncated_entry_recomputed_not_crashed(self, tmp_path, caplog):
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="f1")
        spec = _spec(tmp_path)
        runner = SweepRunner(cache=cache)
        runner.run(spec, logging_point)
        # Corrupt one entry in place (as a kill -9 mid-write never could,
        # thanks to atomic replace -- but disks rot and users edit files).
        victim = cache.path(spec.points()[2])
        with open(victim, "w") as handle:
            handle.write('{"key": "truncat')
        with caplog.at_level("WARNING"):
            runner2 = SweepRunner(cache=cache)
            results = runner2.run(spec, logging_point)
        assert all(r.ok for r in results)
        assert runner2.stats.cache_hits == 4
        assert runner2.stats.computed == 1
        assert "corrupted cache entry" in caplog.text
        # The recomputed entry was re-persisted and is valid again.
        assert cache.get(spec.points()[2])["value"] == {"x": 3}

    def test_wrong_key_entry_discarded(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        point = _spec().points()[0]
        path = cache.path(point)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"key": "not-the-right-key", "value": {"square": 999}}, handle)
        assert cache.get(point) is None
        assert not os.path.exists(path)

    def test_malformed_entry_discarded(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        point = _spec().points()[0]
        path = cache.path(point)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(["not", "a", "dict"], handle)
        assert cache.get(point) is None


class TestResume:
    def test_interrupted_run_resumes_missing_points_only(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="f1")
        spec = _spec(tmp_path)
        # "Kill" the first run after three of five points.
        SweepRunner(cache=cache).run(_spec(tmp_path, xs=(1, 2, 3)), logging_point)
        assert _computed(tmp_path) == [1, 2, 3]
        # Resume: the full sweep completes, recomputing only the missing two.
        runner = SweepRunner(cache=cache)
        results = runner.run(spec, logging_point)
        assert values(results) == [{"x": x} for x in (1, 2, 3, 4, 5)]
        assert _computed(tmp_path) == [1, 2, 3, 4, 5]
        assert runner.stats.cache_hits == 3
        assert runner.stats.computed == 2
        assert [r.cached for r in results] == [True, True, True, False, False]

    def test_second_run_all_cache_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="f1")
        spec = _spec(tmp_path)
        first = values(SweepRunner(cache=cache).run(spec, logging_point))
        runner = SweepRunner(cache=cache)
        second = values(runner.run(spec, logging_point))
        assert second == first
        assert runner.stats.cache_hits == 5
        assert runner.stats.computed == 0
        assert _computed(tmp_path) == [1, 2, 3, 4, 5]

    def test_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="f1")

        spec = SweepSpec("failing", grid=[{"x": 2}])
        runner = SweepRunner(cache=cache)
        results = runner.run(spec, poison_point)
        assert not results[0].ok
        # A subsequent run retries the point instead of serving the failure.
        runner2 = SweepRunner(cache=cache)
        runner2.run(spec, poison_point)
        assert runner2.stats.cache_hits == 0
        assert runner2.stats.computed == 1

    def test_parallel_resume_matches_serial(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="f1")
        spec = _spec(tmp_path)
        SweepRunner(cache=cache).run(_spec(tmp_path, xs=(1, 2)), logging_point)
        runner = SweepRunner(jobs=2, cache=cache)
        results = runner.run(spec, logging_point)
        assert all(r.ok for r in results)
        assert runner.stats.cache_hits == 2
        assert runner.stats.computed == 3
