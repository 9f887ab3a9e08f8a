"""Figure 3 benchmark: optimal vs achieved rate over (κ, µ).

Left panel: Identical setup (100 Mbps x 5).  Right panel: Diverse setup
(5, 20, 60, 65, 100 Mbps).  The paper reports the protocol within 3% of
optimal on Identical and 4% on Diverse; the series below reproduce the
smooth (Corollary 1) vs bumpy (Theorem 2 boundaries) contrast.
"""

from conftest import run_once

from repro.experiments import run_figure
from repro.experiments.reporting import rows_to_table, summarize_ratio


def test_fig3_identical_rate(benchmark):
    rows = run_once(benchmark, run_figure, "fig3", setup="identical", quick=True)
    print("\nFigure 3 (left): Identical setup, optimal vs achieved rate")
    print(rows_to_table(rows, ["kappa", "mu", "optimal_mbps", "achieved_mbps", "ratio"]))
    print(summarize_ratio(rows, "achieved_rate", "optimal_rate"))
    assert all(row["ratio"] > 0.96 for row in rows)
    assert all(row["ratio"] <= 1.0 + 1e-9 for row in rows)


def test_fig3_diverse_rate(benchmark):
    rows = run_once(benchmark, run_figure, "fig3", setup="diverse", quick=True)
    print("\nFigure 3 (right): Diverse setup, optimal vs achieved rate")
    print(rows_to_table(rows, ["kappa", "mu", "optimal_mbps", "achieved_mbps", "ratio"]))
    print(summarize_ratio(rows, "achieved_rate", "optimal_rate"))
    # The paper reports within 4% of optimal "aside from slightly anomalous
    # behavior in the vicinity of µ = 3.4"; the dynamic scheduler shows the
    # same localized dip here, so the bound is checked in two tiers.
    assert all(row["ratio"] > 0.93 for row in rows)
    within_four_percent = sum(1 for row in rows if row["ratio"] > 0.96)
    assert within_four_percent >= 0.8 * len(rows)
    # The bumpy-curve check: on Diverse, optimal rate falls with mu and the
    # protocol follows it through each full-utilisation boundary.
    k1 = [row for row in rows if row["kappa"] == 1.0]
    optima = [row["optimal_rate"] for row in k1]
    assert all(a >= b - 1e-9 for a, b in zip(optima, optima[1:]))
