"""Figure 7 benchmark: increasing channel rate, µ = 5, κ in 1..5.

The paper's observation: κ barely affects rate during normal operation but
once the end systems saturate, larger κ falls short of optimal sooner.
"""

from conftest import run_once

from repro.experiments import run_figure
from repro.experiments.fig67 import saturation_point
from repro.experiments.reporting import rows_to_table


def test_fig7_high_bandwidth(benchmark):
    rows = run_once(benchmark, run_figure, "fig7", quick=True)
    print("\nFigure 7: Identical setup, increasing channel rate, µ = 5")
    print(
        rows_to_table(
            rows, ["kappa", "channel_mbps", "optimal_mbps", "achieved_mbps"], precision=1
        )
    )
    kappas = sorted({row["kappa"] for row in rows})
    points = {}
    for kappa in kappas:
        subset = [row for row in rows if row["kappa"] == kappa]
        points[kappa] = saturation_point(subset)
        print(f"κ={kappa}: departs optimal at ~{points[kappa]} Mbps/channel")
    # At low channel rates every kappa is near-optimal.
    low = [row for row in rows if row["channel_mbps"] == 100.0]
    assert all(row["achieved_mbps"] > 0.95 * row["optimal_mbps"] for row in low)
    # Larger kappa saturates no later than smaller kappa.
    ordered = [points[k] for k in kappas]
    assert all(a >= b or b == float("inf") for a, b in zip(ordered, ordered[1:]))
