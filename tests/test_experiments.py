"""Shape checks on the figure-reproduction drivers (coarse grids).

These assert the *qualitative* claims of each paper figure -- the
reproduction's acceptance criteria -- using grids small enough for CI.
"""

import numpy as np
import pytest

from repro.experiments import run_fig2, run_figure
from repro.experiments.fig67 import saturation_point


class TestFig2:
    def test_packing_matches_theorem4(self):
        rows = run_fig2()
        assert [row["symbols_packed"] for row in rows] == [15, 7, 3]
        assert all(row["symbols_packed"] == row["optimal_floor"] for row in rows)

    def test_full_utilization_cutoff(self):
        # Theorem 2 limit for (3, 4, 8) is 15/8 = 1.875: only mu = 1 can
        # fully utilise every channel.
        rows = run_fig2()
        assert rows[0]["fully_utilized"]
        assert not rows[1]["fully_utilized"]
        assert not rows[2]["fully_utilized"]
        assert rows[0]["theorem2_allows_full_use"]
        assert not rows[1]["theorem2_allows_full_use"]

    def test_columns_use_distinct_channels(self):
        rows = run_fig2()
        for row in rows:
            for column in row["columns"]:
                assert len(column) == row["mu"]


@pytest.mark.slow
class TestFig3:
    def test_identical_within_three_percent(self):
        rows = run_figure(
            "fig3",
            setup="identical", kappas=(1.0, 3.0), mu_step=1.0,
            duration=8.0, warmup=2.0,
        )
        for row in rows:
            assert row["ratio"] > 0.97
            assert row["ratio"] <= 1.0 + 1e-9

    def test_diverse_within_four_percent(self):
        rows = run_figure(
            "fig3",
            setup="diverse", kappas=(1.0, 2.0), mu_step=1.0,
            duration=8.0, warmup=2.0,
        )
        for row in rows:
            assert row["ratio"] > 0.96

    def test_rate_decreases_with_mu(self):
        rows = run_figure(
            "fig3",
            setup="diverse", kappas=(1.0,), mu_step=1.0, duration=6.0, warmup=2.0
        )
        achieved = [row["achieved_rate"] for row in rows]
        assert all(a >= b - 1.0 for a, b in zip(achieved, achieved[1:]))

    def test_unknown_setup_rejected(self):
        with pytest.raises(ValueError):
            run_figure("fig3", setup="bogus")


@pytest.mark.slow
class TestFig4:
    def test_actual_delay_at_least_optimal(self):
        rows = run_figure("fig4", kappas=(1.0, 3.0), mu_step=1.0, duration=6.0, warmup=2.0)
        for row in rows:
            assert row["actual_delay_ms"] >= row["optimal_delay_ms"] - 0.5

    def test_optimal_delay_increases_with_kappa(self):
        rows = run_figure("fig4", kappas=(1.0, 5.0), mu_step=5.0, duration=4.0, warmup=1.0)
        by_kappa = {row["kappa"]: row["optimal_delay_ms"] for row in rows if row["mu"] == 5.0}
        assert by_kappa[5.0] > by_kappa[1.0]


@pytest.mark.slow
class TestFig5:
    def test_loss_tracks_optimal(self):
        rows = run_figure("fig5", kappas=(2.0,), mu_step=1.0, duration=15.0, warmup=3.0)
        for row in rows:
            # Actual is never meaningfully below optimal, and tracks it
            # within a couple of points on this setup (paper: "extremely
            # close" for kappa = 2).
            assert row["actual_loss_pct"] >= row["optimal_loss_pct"] - 1.0
            assert row["actual_loss_pct"] <= row["optimal_loss_pct"] + 3.0

    def test_redundancy_drives_loss_down(self):
        rows = run_figure("fig5", kappas=(1.0,), mu_step=2.0, duration=10.0, warmup=2.0)
        first, last = rows[0], rows[-1]
        assert last["actual_loss_pct"] < first["actual_loss_pct"]


@pytest.mark.slow
class TestFig67:
    def test_fig6_levels_off(self):
        rows = run_figure(
            "fig6", sweep_mbps=(100.0, 200.0, 400.0, 800.0), duration=5.0, warmup=1.0
        )
        # Achieved tracks optimal at low rate, then plateaus ~750 Mbps.
        assert rows[0]["achieved_mbps"] == pytest.approx(rows[0]["optimal_mbps"], rel=0.05)
        plateau = [row["achieved_mbps"] for row in rows[1:]]
        assert max(plateau) < 800.0
        assert np.ptp(plateau) < 50.0

    def test_fig7_large_kappa_departs_sooner(self):
        rows = run_figure(
            "fig7",
            sweep_mbps=(100.0, 150.0, 200.0, 300.0, 400.0),
            kappas=(1.0, 5.0),
            duration=5.0,
            warmup=1.0,
        )
        k1 = [row for row in rows if row["kappa"] == 1.0]
        k5 = [row for row in rows if row["kappa"] == 5.0]
        assert saturation_point(k5) <= saturation_point(k1)

    def test_fig7_plateau_ordering(self):
        rows = run_figure(
            "fig7",
            sweep_mbps=(400.0,), kappas=(1.0, 3.0, 5.0), duration=5.0, warmup=1.0
        )
        plateaus = {row["kappa"]: row["achieved_mbps"] for row in rows}
        assert plateaus[1.0] > plateaus[3.0] > plateaus[5.0]
