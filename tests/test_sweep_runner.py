"""SweepRunner execution semantics: order, parallelism, isolation."""

import os

import pytest

from repro.sweep import SweepError, SweepRunner, SweepSpec, values


def square_point(params, seed):
    """Module-level (picklable) point function used across these tests."""
    return {"square": params["x"] ** 2, "seed": seed}


def poison_point(params, seed):
    if params["x"] == 2:
        raise ValueError("poisoned point")
    return {"x": params["x"]}


def flaky_point(params, seed):
    """Fails on its first call per point, counting calls in a marker file."""
    marker = os.path.join(params["dir"], f"calls-{params['x']}")
    calls = 0
    if os.path.exists(marker):
        with open(marker) as handle:
            calls = int(handle.read())
    with open(marker, "w") as handle:
        handle.write(str(calls + 1))
    if calls == 0:
        raise RuntimeError("first call fails")
    return {"x": params["x"]}


def never_called(params, seed):
    raise AssertionError("no point should run")


SPEC = SweepSpec("squares", grid=[{"x": x} for x in (1, 2, 3, 4, 5)])


class TestSerial:
    def test_results_in_enumeration_order(self):
        results = SweepRunner().run(SPEC, square_point)
        assert [r.value["square"] for r in results] == [1, 4, 9, 16, 25]
        assert all(r.ok and not r.cached for r in results)

    def test_stats(self):
        runner = SweepRunner()
        runner.run(SPEC, square_point)
        assert runner.stats.points == 5
        assert runner.stats.computed == 5
        assert runner.stats.cache_hits == 0
        assert runner.stats.failures == 0
        assert "points=5" in runner.stats.summary()

    def test_stats_describe_the_last_run_only(self):
        runner = SweepRunner()
        runner.run(SPEC, square_point)
        runner.run(SPEC, poison_point)
        assert runner.stats.points == 5
        assert runner.stats.computed == 5
        assert runner.stats.failures == 1
        runner.run(SweepSpec("squares", grid=[{"x": 3}]), square_point)
        assert runner.stats.points == 1
        assert runner.stats.failures == 0

    def test_empty_spec_runs_nothing(self):
        runner = SweepRunner()
        assert runner.run(SweepSpec("empty", grid=[]), never_called) == []
        assert runner.stats.points == 0
        assert runner.stats.computed == 0


class TestParallel:
    def test_identical_to_serial(self):
        serial = values(SweepRunner(jobs=1).run(SPEC, square_point))
        parallel = values(SweepRunner(jobs=3).run(SPEC, square_point))
        assert parallel == serial

    def test_seeds_derived_from_identity(self):
        # The seed handed to the point function must be the point's own,
        # regardless of which worker ran it.
        results = SweepRunner(jobs=2).run(SPEC, square_point)
        for result in results:
            assert result.value["seed"] == result.point.seed

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestFailureIsolation:
    def test_one_failing_point_does_not_stop_the_sweep(self):
        results = SweepRunner().run(SPEC, poison_point)
        assert [r.ok for r in results] == [True, False, True, True, True]
        failed = results[1]
        assert "poisoned point" in failed.error
        assert failed.value is None
        with pytest.raises(SweepError):
            values(results)

    def test_parallel_failure_isolation(self):
        results = SweepRunner(jobs=2).run(SPEC, poison_point)
        assert [r.ok for r in results] == [True, False, True, True, True]

    def test_failure_counted_in_stats(self):
        runner = SweepRunner()
        runner.run(SPEC, poison_point)
        assert runner.stats.failures == 1
        assert runner.stats.computed == 5

    def test_values_error_names_the_point(self):
        results = SweepRunner().run(SPEC, poison_point)
        with pytest.raises(SweepError, match=r"sweep point 1 \(\{'x': 2\}\) failed"):
            values(results)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_point_runs_once(self, tmp_path, jobs):
        # A point function is pure in (params, seed), so a failed point is
        # recorded after one call and never run again in the same sweep.
        spec = SweepSpec("flaky", grid=[{"x": 1}, {"x": 2}], base={"dir": str(tmp_path)})
        runner = SweepRunner(jobs=jobs)
        results = runner.run(spec, flaky_point)
        assert [r.ok for r in results] == [False, False]
        assert all("first call fails" in r.error for r in results)
        assert [(tmp_path / f"calls-{x}").read_text() for x in (1, 2)] == ["1", "1"]
        assert runner.stats.computed == 2
        assert runner.stats.failures == 2

    def test_retries_keyword_is_gone(self):
        with pytest.raises(TypeError):
            SweepRunner(retries=1)
