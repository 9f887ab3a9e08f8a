"""Tradeoff sweeps over the (κ, µ) plane."""


import numpy as np
import pytest

from repro.core.program import Objective
from repro.core.rate import optimal_rate
from repro.core.tradeoff import frontier_matrix, mu_grid, sweep_tradeoffs


class TestMuGrid:
    def test_paper_grid(self):
        grid = mu_grid(2.0, 5, step=0.1)
        assert grid[0] == 2.0
        assert grid[-1] == 5.0
        assert len(grid) == 31

    def test_kappa_equals_n(self):
        assert mu_grid(5.0, 5) == [5.0]

    def test_non_divisible_step_still_reaches_n(self):
        grid = mu_grid(1.0, 5, step=0.3)
        assert grid[-1] == 5.0

    @pytest.mark.parametrize(
        "kappa,step",
        [
            (1.0, 0.0),
            (1.0, -0.5),
            (1.0, float("nan")),
            (1.0, float("inf")),
            (float("nan"), 0.5),
            (float("inf"), 0.5),
        ],
    )
    def test_grid_that_never_reaches_n_rejected(self, kappa, step):
        # Each of these used to loop forever (or return [nan, 5.0]).
        with pytest.raises(ValueError, match="mu_grid"):
            mu_grid(kappa, 5, step)

    @pytest.mark.parametrize("kappa", [7.0, 5.5, 0.5, 0.0, -1.0])
    def test_kappa_outside_one_to_n_rejected(self, kappa):
        # κ > n used to return [5.0], a point with µ < κ, and κ < 1 a grid
        # whose first points have µ < 1; every point function rejects both.
        with pytest.raises(ValueError, match="^mu_grid"):
            mu_grid(kappa, 5)


class TestSweep:
    def test_sweep_shape_and_monotonicity(self, five_channels):
        points = list(
            sweep_tradeoffs(
                five_channels,
                kappas=[2.0],
                step=1.0,
                at_max_rate=True,
                objectives=[Objective.LOSS],
            )
        )
        mus = [p.mu for p in points]
        assert mus == [2.0, 3.0, 4.0, 5.0]
        # Rate is decreasing in mu.
        rates = [p.rate for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
        # Loss column is filled, others None (not requested).
        assert all(p.loss is not None for p in points)
        assert all(p.privacy_risk is None for p in points)

    def test_rates_match_theorem4(self, five_channels):
        points = list(
            sweep_tradeoffs(
                five_channels, kappas=[1.0], step=0.5, objectives=[]
            )
        )
        for p in points:
            assert p.rate == pytest.approx(optimal_rate(five_channels, p.mu))

    def test_frontier_matrix(self, five_channels):
        points = list(
            sweep_tradeoffs(
                five_channels, kappas=[1.0], step=1.0, objectives=[Objective.PRIVACY]
            )
        )
        matrix = frontier_matrix(points, "privacy_risk")
        assert matrix.shape == (len(points), 3)
        assert not np.isnan(matrix[:, 2]).any()
        missing = frontier_matrix(points, "loss")
        assert np.isnan(missing[:, 2]).all()

    def test_privacy_improves_with_kappa(self, five_channels):
        """Higher κ at the same µ gives the adversary a harder job."""
        values = {}
        for kappa in (1.0, 2.0, 3.0):
            points = list(
                sweep_tradeoffs(
                    five_channels,
                    kappas=[kappa],
                    step=5.0,  # only mu = kappa and mu = 5 sampled
                    at_max_rate=False,
                    objectives=[Objective.PRIVACY],
                )
            )
            by_mu = {round(p.mu, 3): p.privacy_risk for p in points}
            if 5.0 in by_mu:
                values[kappa] = by_mu[5.0]
        ordered = [values[k] for k in sorted(values)]
        assert all(a >= b - 1e-9 for a, b in zip(ordered, ordered[1:]))
