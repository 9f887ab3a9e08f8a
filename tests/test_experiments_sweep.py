"""Sweep-orchestrated experiments: figure wiring, MC chunking, CLI surface."""

import json

import numpy as np
import pytest

from repro.adversary.montecarlo import (
    _pool_chunks,
    _split_samples,
    estimate_schedule_properties_sweep,
    estimate_subset_properties_sweep,
    subset_sweep_spec,
)
from repro.cli import main as cli_main
from repro.core.channel import ChannelSet
from repro.core.properties import subset_loss, subset_risk
from repro.experiments import run_figure
from repro.experiments.fig3 import fig3_point, fig3_spec
from repro.experiments.fig67 import fig6_spec, fig7_spec
from repro.sweep import ResultCache, SweepRunner, values


QUICK = dict(kappas=(1.0, 3.0), mu_step=1.0, duration=4.0, warmup=1.0)


@pytest.fixture
def five_channels():
    return ChannelSet.from_vectors(
        risks=[0.2, 0.1, 0.3, 0.05, 0.15],
        losses=[0.01, 0.02, 0.005, 0.03, 0.01],
        delays=[1.0, 2.0, 3.0, 4.0, 5.0],
        rates=[10.0] * 5,
    )


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


class TestMonteCarloSweep:
    def test_chunk_split_conserves_samples(self):
        assert _split_samples(10, 3) == [4, 3, 3]
        assert _split_samples(2, 8) == [1, 1]
        assert sum(_split_samples(100_000, 7)) == 100_000
        with pytest.raises(ValueError):
            _split_samples(0, 3)

    def test_pooling_weights_delay_by_delivered(self):
        pooled = _pool_chunks(
            [
                {"risk": 0.1, "loss": 0.5, "delay": 2.0, "samples": 100},
                {"risk": 0.3, "loss": 0.0, "delay": 4.0, "samples": 100},
            ]
        )
        assert pooled.risk == pytest.approx(0.2)
        assert pooled.loss == pytest.approx(0.25)
        # 50 delivered at 2.0, 100 delivered at 4.0.
        assert pooled.delay == pytest.approx((50 * 2.0 + 100 * 4.0) / 150)
        assert pooled.samples == 200

    def test_pooling_all_lost_gives_nan_delay(self):
        pooled = _pool_chunks(
            [{"risk": 0.0, "loss": 1.0, "delay": float("nan"), "samples": 10}]
        )
        assert np.isnan(pooled.delay)

    def test_sweep_estimates_match_closed_forms(self, five_channels):
        estimate = estimate_subset_properties_sweep(
            five_channels, 2, [0, 2, 4], samples=120_000, chunks=6, seed=3
        )
        assert estimate.samples == 120_000
        assert estimate.risk == pytest.approx(
            subset_risk(five_channels, 2, [0, 2, 4]), abs=0.01
        )
        assert estimate.loss == pytest.approx(
            subset_loss(five_channels, 2, [0, 2, 4]), abs=0.005
        )

    @pytest.mark.slow
    def test_jobs_do_not_change_estimates(self, five_channels):
        kwargs = dict(samples=40_000, chunks=4, seed=9)
        serial = estimate_subset_properties_sweep(five_channels, 2, [0, 1, 2], **kwargs)
        parallel = estimate_subset_properties_sweep(
            five_channels, 2, [0, 1, 2], jobs=2, **kwargs
        )
        assert serial == parallel

    def test_chunks_are_independently_seeded(self, five_channels):
        spec = subset_sweep_spec(five_channels, 2, [0, 1, 2], samples=1000, chunks=4)
        seeds = [p.seed for p in spec]
        assert len(set(seeds)) == 4

    def test_schedule_sweep_matches_closed_forms(self, five_channels):
        from repro.core.schedule import ShareSchedule

        schedule = ShareSchedule(
            five_channels, {(2, frozenset({0, 1, 2})): 0.5, (3, frozenset({1, 2, 3, 4})): 0.5}
        )
        estimate = estimate_schedule_properties_sweep(
            schedule, samples=60_000, chunks=3, seed=1
        )
        assert estimate.risk == pytest.approx(schedule.privacy_risk(), abs=0.01)
        assert estimate.loss == pytest.approx(schedule.loss(), abs=0.01)


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

    def test_runner_module_exit_codes(self):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["--only", "fig2"]) == 0

    def test_runner_only_runs_the_selected_figure(self, capsys):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["--only", "fig6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6:" in out
        assert "Figure 7:" not in out
