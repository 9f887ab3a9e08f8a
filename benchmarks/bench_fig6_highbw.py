"""Figure 6 benchmark: increasing channel rate, κ = µ = 1 (CPU-bound)."""

from conftest import run_once

from repro.experiments import run_figure
from repro.experiments.fig67 import saturation_point
from repro.experiments.reporting import rows_to_table


def test_fig6_high_bandwidth(benchmark):
    rows = run_once(benchmark, run_figure, "fig6", quick=True)
    print("\nFigure 6: Identical setup, increasing channel rate, κ = µ = 1")
    print(rows_to_table(rows, ["channel_mbps", "optimal_mbps", "achieved_mbps"], precision=1))
    point = saturation_point(rows)
    print(f"level-off at ~{point} Mbps/channel (paper: ~150 Mbps/channel)")
    # Tracks optimal at 100 Mbps, then levels off around 750 Mbps total.
    assert rows[0]["achieved_mbps"] > 0.95 * rows[0]["optimal_mbps"]
    plateau = [row["achieved_mbps"] for row in rows if row["channel_mbps"] >= 300.0]
    assert all(700.0 < value < 800.0 for value in plateau)
    assert point <= 300.0
