"""Sweep-orchestrated experiments: figure wiring and CLI surface."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments import run_figure
from repro.experiments.fig3 import fig3_point, fig3_spec
from repro.experiments.fig67 import fig6_spec, fig7_spec
from repro.sweep import ResultCache, SweepRunner, values


QUICK = dict(kappas=(1.0, 3.0), mu_step=1.0, duration=4.0, warmup=1.0)


class TestFigureWiring:
    def test_fig3_serial_path_matches_plain_loop(self):
        """run_figure is the spec enumerated point-by-point, nothing more."""
        spec = fig3_spec(setup="identical", **QUICK)
        expected = [fig3_point(dict(p.params), p.seed) for p in spec]
        assert run_figure("fig3", setup="identical", **QUICK) == expected

    @pytest.mark.slow
    def test_fig3_jobs_do_not_change_rows(self):
        serial = run_figure("fig3", setup="identical", **QUICK, jobs=1)
        parallel = run_figure("fig3", setup="identical", **QUICK, jobs=2)
        assert parallel == serial

    @pytest.mark.slow
    def test_fig3_resume_serves_identical_rows(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="test")
        cold = run_figure("fig3", setup="identical", **QUICK, cache=cache)
        runner_check = SweepRunner(cache=cache)
        warm_results = runner_check.run(fig3_spec(setup="identical", **QUICK), fig3_point)
        assert values(warm_results) == cold
        assert runner_check.stats.cache_hits == runner_check.stats.points

    def test_fig3_spec_grid_matches_mu_grid(self):
        spec = fig3_spec(setup="diverse", kappas=(2.0,), mu_step=1.0)
        mus = [p.params["mu"] for p in spec]
        assert mus == [2.0, 3.0, 4.0, 5.0]
        assert all(p.params["setup"] == "diverse" for p in spec)

    def test_fig67_specs_cover_expected_grids(self):
        spec6 = fig6_spec(sweep_mbps=(100.0, 200.0))
        assert [p.params["channel_mbps"] for p in spec6] == [100.0, 200.0]
        assert all(p.params["kappa"] == 1.0 and p.params["mu"] == 1.0 for p in spec6)
        spec7 = fig7_spec(sweep_mbps=(100.0,), kappas=(1.0, 5.0))
        assert [(p.params["kappa"], p.params["channel_mbps"]) for p in spec7] == [
            (1.0, 100.0),
            (5.0, 100.0),
        ]

    def test_per_point_seeds_are_collision_free(self):
        # The arithmetic this subsystem replaced (seed + int(kappa*1000) +
        # int(mu*10)) collided across (kappa, mu) pairs; derived seeds don't.
        spec = fig3_spec(setup="identical", kappas=(1.0, 2.0, 3.0, 4.0, 5.0), mu_step=0.1)
        seeds = [p.seed for p in spec]
        assert len(set(seeds)) == len(seeds)


class TestSweepCli:
    ARGS = [
        "sweep", "--figure", "fig3", "--kappa", "1",
        "--mu-step", "2", "--duration", "3", "--warmup", "1",
    ]

    def test_sweep_command_runs_and_reports(self, capsys):
        assert cli_main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "sweep: points=3 cache_hits=0 computed=3" in out
        assert "ratio" in out

    def test_cache_dir_alone_caches(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert cli_main(args) == 0
        assert "cache_hits=0 computed=3" in capsys.readouterr().out
        assert cli_main(args) == 0
        assert "cache_hits=3 computed=0" in capsys.readouterr().out

    def test_retries_is_not_an_option(self, capsys):
        # A failing point runs once: its function is pure in (params, seed).
        with pytest.raises(SystemExit) as exc:
            cli_main(self.ARGS + ["--retries", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --retries" in capsys.readouterr().err

    @pytest.mark.slow
    def test_resume_round_trip_is_byte_identical(self, tmp_path, capsys):
        args = self.ARGS + [
            "--jobs", "2", "--resume", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert cli_main(args + ["--out", str(tmp_path / "a.json")]) == 0
        first = capsys.readouterr().out
        assert "computed=3" in first
        assert cli_main(args + ["--out", str(tmp_path / "b.json")]) == 0
        second = capsys.readouterr().out
        assert "cache_hits=3 computed=0" in second
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert json.loads((tmp_path / "a.json").read_text())

    @pytest.mark.parametrize(
        "argv",
        [
            ["--figure", "fig6", "--kappa", "3"],
            ["--figure", "fig6", "--mu-step", "0.3"],
            ["--figure", "fig7", "--mu-step", "0.3"],
            ["--figure", "fig4", "--setup", "diverse"],
        ],
    )
    def test_option_the_figure_does_not_take_is_an_error(self, argv, capsys):
        assert cli_main(["sweep", "--quick", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {argv[2]} ")

    @pytest.mark.parametrize(
        "option,value",
        [("--mu-step", "nan"), ("--kappa", "nan"), ("--kappa", "7"), ("--kappa", "0.5")],
        ids=["--mu-step", "--kappa", "--kappa 7", "--kappa 0.5"],
    )
    def test_non_finite_grid_value_is_an_error(self, option, value, capsys):
        # The spec builder rejects the grid before any point runs; a κ
        # outside [1, n] used to fail every point instead.
        assert cli_main(["sweep", "--figure", "fig3", "--quick", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: mu_grid ")

    def test_runner_module_exit_codes(self):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["--only", "fig2"]) == 0

    def test_runner_only_runs_the_selected_figure(self, capsys):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["--only", "fig6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6:" in out
        assert "Figure 7:" not in out

    def test_runner_cache_dir_alone_caches(self, tmp_path, capsys):
        # One rule for both front ends: --cache-dir implies caching
        # without --resume, as on `repro sweep`.
        from repro.experiments.runner import main as runner_main

        cache_dir = tmp_path / "cache"
        assert runner_main(["--only", "fig6", "--quick", "--cache-dir", str(cache_dir)]) == 0
        assert len(list((cache_dir / "fig6").glob("*.json"))) == 8
