"""Figure 4 benchmark: optimal vs actual delay at maximum rate (Delayed).

The paper plots the two on separate axes because queueing at maximum rate
dwarfs channel delay in the actual measurements; the assertions check that
relationship and the κ ordering of the optimal curves.
"""

from conftest import run_once

from repro.experiments import run_figure
from repro.experiments.reporting import rows_to_table


def test_fig4_delay_at_max_rate(benchmark):
    rows = run_once(benchmark, run_figure, "fig4", quick=True)
    print("\nFigure 4: delay at maximum rate (Delayed setup)")
    print(rows_to_table(rows, ["kappa", "mu", "optimal_delay_ms", "actual_delay_ms"]))
    # Actual includes queueing, so it dominates optimal everywhere.
    assert all(row["actual_delay_ms"] >= row["optimal_delay_ms"] - 0.5 for row in rows)
    # Optimal delay grows with kappa at mu = n (more order statistics to wait for).
    at_full = {row["kappa"]: row["optimal_delay_ms"] for row in rows if row["mu"] == 5.0}
    ordered = [at_full[k] for k in sorted(at_full)]
    assert all(a <= b + 1e-9 for a, b in zip(ordered, ordered[1:]))


def test_fig4_uncongested_ablation(benchmark):
    """At 60% of maximum rate the queues drain and actual approaches optimal
    -- the paper's explanation for the well-behaved regions of Fig. 4."""
    rows = run_once(
        benchmark, run_figure, "fig4", kappas=(1.0,), mu_step=2.0,
        duration=8.0, warmup=2.0, offered_fraction=0.6,
    )
    print("\nFigure 4 ablation: 60% offered load")
    print(rows_to_table(rows, ["kappa", "mu", "optimal_delay_ms", "actual_delay_ms"]))
    for row in rows:
        assert row["actual_delay_ms"] < 5.0 * max(row["optimal_delay_ms"], 1.0)
