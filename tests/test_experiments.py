"""The paper's figure claims (Sec. VI), checked on the committed quick export.

Each claim about Figs. 3-7 -- "within 3-4% of optimal", Fig. 6's level-off,
Fig. 7's larger κ falling off sooner -- is asserted once, on the rows of
``results/fig*.csv``, instead of on a simulation of its own.  That is sound
because those files are pinned twice over: CI's "Figure CSV drift" step
requires them to equal a fresh ``python -m repro.experiments.runner --quick
--csv`` export byte for byte (serial and pooled), and the figure goldens
(``tests/test_figure_golden.py``) fail tier-1 on any change to the rows the
sweeps compute.  So a behaviour change either fails those pins or, once
the CSVs are regenerated, is judged here.  Each check first requires the
file to hold every point of its quick grid, so a claim never passes on an
empty or truncated file.

Figure 2 has no simulation and is checked on its driver directly; the two
ablations below (Fig. 4 at 60% load, Fig. 5 with the fixed selector) are
not part of the export and run small grids of their own.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import SWEEPS, run_fig2, run_figure
from repro.experiments.fig67 import saturation_point
from repro.experiments.runner import SERIES

RESULTS = Path(__file__).resolve().parent.parent / "results"


def committed_rows(csv_name):
    """One series' committed rows as floats, after checking the row count.

    The expected count is the length of the quick grid the runner exports
    for that file (its :data:`~repro.experiments.runner.SERIES` entry).
    """
    (series,) = [series for series in SERIES if series.csv == csv_name]
    with open(RESULTS / csv_name, newline="") as handle:
        rows = [
            {key: float(value) for key, value in row.items()}
            for row in csv.DictReader(handle)
        ]
    build, _ = SWEEPS[series.figure]
    assert len(rows) == len(build(quick=True, **series.overrides)), csv_name
    return rows


def non_increasing(values, slack=1e-9):
    return all(a >= b - slack for a, b in zip(values, values[1:]))


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


class TestFig3:
    def test_identical_within_three_percent(self):
        for row in committed_rows("fig3_rate_identical.csv"):
            assert 0.97 < row["ratio"] <= 1.0 + 1e-9, row

    def test_diverse_within_four_percent(self):
        # The paper reports within 4% of optimal "aside from slightly
        # anomalous behavior in the vicinity of µ = 3.4"; the dynamic
        # scheduler shows the same localized dips, so the bound has two
        # tiers, and the low-κ integer-µ points meet the tight one.
        rows = committed_rows("fig3_rate_diverse.csv")
        assert all(row["ratio"] > 0.93 for row in rows)
        assert sum(row["ratio"] > 0.96 for row in rows) >= 0.8 * len(rows)
        for row in rows:
            if row["kappa"] <= 2.0 and row["mu"] == round(row["mu"]):
                assert row["ratio"] > 0.96, row

    def test_rate_decreases_with_mu(self):
        # The bumpy-curve check: on Diverse, optimal rate falls with µ and
        # the protocol follows it through each full-utilisation boundary.
        k1 = [row for row in committed_rows("fig3_rate_diverse.csv") if row["kappa"] == 1.0]
        assert non_increasing([row["optimal_rate"] for row in k1])
        assert non_increasing([row["achieved_rate"] for row in k1], slack=1.0)

    def test_unknown_setup_rejected(self):
        with pytest.raises(ValueError):
            run_figure("fig3", setup="bogus")


class TestFig4:
    def test_actual_delay_at_least_optimal(self):
        # Actual includes queueing at maximum rate, so it dominates optimal.
        for row in committed_rows("fig4_delay.csv"):
            assert row["actual_delay_ms"] >= row["optimal_delay_ms"] - 0.5, row

    def test_optimal_delay_increases_with_kappa(self):
        # At µ = n, a larger κ waits for a later order statistic.
        at_full = {
            row["kappa"]: row["optimal_delay_ms"]
            for row in committed_rows("fig4_delay.csv")
            if row["mu"] == 5.0
        }
        ordered = [at_full[kappa] for kappa in sorted(at_full)]
        assert all(a <= b + 1e-9 for a, b in zip(ordered, ordered[1:]))
        assert at_full[5.0] > at_full[1.0]

    def test_uncongested_ablation(self):
        """At 60% of maximum rate the queues drain and actual approaches
        optimal -- the paper's explanation for the well-behaved regions."""
        rows = run_figure(
            "fig4", kappas=(1.0,), mu_step=2.0, duration=8.0, warmup=2.0,
            offered_fraction=0.6,
        )
        assert rows
        for row in rows:
            assert row["actual_delay_ms"] < 5.0 * max(row["optimal_delay_ms"], 1.0), row


class TestFig5:
    def test_loss_tracks_optimal(self):
        # Measured loss tracks the LP optimum within a few points (the paper
        # notes implementation-specific spikes at isolated parameters), and
        # "extremely close" for κ = 2.
        rows = committed_rows("fig5_loss.csv")
        close = [row for row in rows if row["actual_loss_pct"] <= row["optimal_loss_pct"] + 3.0]
        assert len(close) >= 0.8 * len(rows)
        for row in rows:
            if row["kappa"] == 2.0:
                assert row["actual_loss_pct"] >= row["optimal_loss_pct"] - 1.0, row
                assert row["actual_loss_pct"] <= row["optimal_loss_pct"] + 3.0, row

    def test_redundancy_drives_loss_down(self):
        k1 = [row for row in committed_rows("fig5_loss.csv") if row["kappa"] == 1.0]
        assert k1[-1]["actual_loss_pct"] < k1[0]["actual_loss_pct"]

    def test_fixed_selector_ablation(self):
        """Neither selector ordering shows the paper's κ = 3, µ = 3.8 loss
        spike: every κ = 3 point of the naive fixed order, like the
        default headroom order, is inside the +3-point tier of
        ``test_loss_tracks_optimal``."""
        for ordering in ("headroom", "fixed"):
            rows = run_figure(
                "fig5", kappas=(3.0,), mu_step=0.4, duration=40.0, warmup=5.0,
                selector_ordering=ordering,
            )
            assert [row["mu"] for row in rows] == [3.0, 3.4, 3.8, 4.2, 4.6, 5.0]
            for row in rows:
                assert row["actual_loss_pct"] <= row["optimal_loss_pct"] + 3.0, (ordering, row)


class TestFig67:
    def test_fig6_levels_off(self):
        # Tracks optimal at 100 Mbps, then plateaus near 750 Mbps in total.
        rows = committed_rows("fig6_highbw.csv")
        assert rows[0]["channel_mbps"] == 100.0
        assert rows[0]["achieved_mbps"] == pytest.approx(rows[0]["optimal_mbps"], rel=0.05)
        plateau = [row["achieved_mbps"] for row in rows[1:]]
        assert max(plateau) < 800.0
        assert np.ptp(plateau) < 50.0
        for row in rows:
            if row["channel_mbps"] >= 300.0:
                assert 700.0 < row["achieved_mbps"] < 800.0, row
        assert saturation_point(rows) <= 300.0

    def test_fig7_near_optimal_at_low_rate(self):
        rows = committed_rows("fig7_highbw.csv")
        low = [row for row in rows if row["channel_mbps"] == 100.0]
        assert len(low) == len({row["kappa"] for row in rows})
        for row in low:
            assert row["achieved_mbps"] > 0.95 * row["optimal_mbps"], row

    def test_fig7_large_kappa_departs_sooner(self):
        rows = committed_rows("fig7_highbw.csv")
        kappas = sorted({row["kappa"] for row in rows})
        points = [saturation_point([row for row in rows if row["kappa"] == k]) for k in kappas]
        assert non_increasing(points, slack=0.0)

    def test_fig7_plateau_ordering(self):
        plateaus = {
            row["kappa"]: row["achieved_mbps"]
            for row in committed_rows("fig7_highbw.csv")
            if row["channel_mbps"] == 400.0
        }
        assert plateaus[1.0] > plateaus[3.0] > plateaus[5.0]
