"""The schedule linear programs (Sec. IV-B, IV-D) and limited schedules (IV-E)."""

import numpy as np
import pytest

from repro.core.channel import ChannelSet
from repro.core.optimal import max_privacy_risk, min_delay, min_loss
from repro.core.program import (
    Objective,
    build_program,
    fractional_atoms,
    limited_pairs,
    optimal_property_value,
    optimal_schedule,
    schedule_pairs,
    theorem5_schedule,
)
from repro.core.rate import optimal_channel_usage, optimal_rate
from repro.lp import solve
from repro.workloads.setups import lossy_setup
from tests.lp_oracle import solve_simplex


class TestSchedulePairs:
    def test_count_for_n(self, five_channels, three_channels):
        # Sum over subsets M of |M| choices of k: n=3 -> 1*3 + 2*3 + 3*1 = 12.
        assert len(schedule_pairs(three_channels)) == 12
        # n=5 -> sum m*C(5,m) = 5 + 20 + 30 + 20 + 5 = 80.
        assert len(schedule_pairs(five_channels)) == 80

    def test_all_pairs_valid(self, five_channels):
        for k, members in schedule_pairs(five_channels):
            assert 1 <= k <= len(members)

    def test_deterministic_order(self, five_channels):
        assert schedule_pairs(five_channels) == schedule_pairs(five_channels)

    def test_limited_pairs_respect_floors(self, five_channels):
        pairs = limited_pairs(five_channels, kappa=2.5, mu=3.5)
        assert pairs
        for k, members in pairs:
            assert k >= 2
            assert len(members) >= 3

    def test_limited_pairs_subset_of_all(self, five_channels):
        all_pairs = set(schedule_pairs(five_channels))
        assert set(limited_pairs(five_channels, 2.0, 4.0)) <= all_pairs


class TestFreeProgram:
    @pytest.mark.parametrize("objective", list(Objective))
    def test_schedule_hits_kappa_mu(self, five_channels, objective):
        s = optimal_schedule(five_channels, objective, kappa=2.0, mu=3.5)
        assert s.kappa == pytest.approx(2.0, abs=1e-6)
        assert s.mu == pytest.approx(3.5, abs=1e-6)

    def test_free_extremes_match_closed_forms(self, five_channels):
        n = five_channels.n
        z = optimal_property_value(five_channels, Objective.PRIVACY, kappa=n, mu=n)
        assert z == pytest.approx(max_privacy_risk(five_channels)[0], abs=1e-9)
        l = optimal_property_value(five_channels, Objective.LOSS, kappa=1.0, mu=n)
        assert l == pytest.approx(min_loss(five_channels)[0], abs=1e-9)
        d = optimal_property_value(five_channels, Objective.DELAY, kappa=1.0, mu=n)
        assert d == pytest.approx(min_delay(five_channels)[0], abs=1e-6)

    def test_objective_value_matches_schedule_property(self, five_channels):
        value = optimal_property_value(five_channels, Objective.LOSS, 2.0, 3.0)
        s = optimal_schedule(five_channels, Objective.LOSS, 2.0, 3.0)
        assert s.loss() == pytest.approx(value, abs=1e-9)

    def test_relaxing_mu_never_hurts_loss(self, five_channels):
        # More multiplicity budget cannot increase the optimal loss.
        losses = [
            optimal_property_value(five_channels, Objective.LOSS, 1.5, mu)
            for mu in (2.0, 3.0, 4.0, 5.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))

    def test_invalid_parameters_rejected(self, five_channels):
        with pytest.raises(ValueError):
            build_program(five_channels, Objective.LOSS, kappa=3.0, mu=2.0)
        with pytest.raises(ValueError):
            build_program(five_channels, Objective.LOSS, kappa=0.5, mu=2.0)
        with pytest.raises(ValueError):
            build_program(five_channels, Objective.LOSS, kappa=1.0, mu=6.0)


class TestMaxRateProgram:
    @pytest.mark.parametrize("objective", list(Objective))
    def test_schedule_sustains_optimal_rate(self, five_channels, objective):
        mu = 3.0
        s = optimal_schedule(five_channels, objective, kappa=2.0, mu=mu, at_max_rate=True)
        assert s.max_symbol_rate() == pytest.approx(
            optimal_rate(five_channels, mu), rel=1e-6
        )

    def test_usage_matches_theorem(self, five_channels):
        mu = 3.4
        s = optimal_schedule(
            five_channels, Objective.PRIVACY, kappa=2.0, mu=mu, at_max_rate=True
        )
        np.testing.assert_allclose(
            s.channel_usage(), optimal_channel_usage(five_channels, mu), atol=1e-7
        )

    def test_mu_constraint_implied(self, five_channels):
        s = optimal_schedule(
            five_channels, Objective.LOSS, kappa=2.0, mu=3.0, at_max_rate=True
        )
        assert s.mu == pytest.approx(3.0, abs=1e-6)
        assert s.kappa == pytest.approx(2.0, abs=1e-6)

    def test_max_rate_costs_some_optimality(self, five_channels):
        """Free optimisation is at least as good as max-rate optimisation."""
        free = optimal_property_value(five_channels, Objective.LOSS, 2.0, 3.0)
        at_rate = optimal_property_value(
            five_channels, Objective.LOSS, 2.0, 3.0, at_max_rate=True
        )
        assert free <= at_rate + 1e-9

    def test_backends_agree(self, five_channels):
        program, _ = build_program(
            five_channels, Objective.DELAY, 2.0, 3.5, at_max_rate=True
        )
        assert solve_simplex(program).objective == pytest.approx(
            solve(program).objective, abs=1e-7
        )

    def test_oracle_agreement_sweep(self):
        """HiGHS tracks the simplex oracle on nine Sec. IV-D loss programs."""
        channels = lossy_setup()
        for kappa in (1.0, 2.0, 3.0):
            for mu in (kappa, min(5.0, kappa + 1.5), 5.0):
                program, _ = build_program(
                    channels, Objective.LOSS, kappa, mu, at_max_rate=True
                )
                assert solve_simplex(program).objective == pytest.approx(
                    solve(program).objective, abs=1e-7
                ), (kappa, mu)


class TestFractionalAtoms:
    def test_integral_parameters_single_atom(self):
        assert fractional_atoms(2.0, 4.0) == [((2, 4), 1.0)]

    def test_exact_averages(self):
        for kappa, mu in [(1.5, 3.5), (2.0, 2.7), (1.2, 1.6), (3.0, 3.0), (1.0, 4.9)]:
            atoms = fractional_atoms(kappa, mu)
            mean_k = sum(k * p for (k, _), p in atoms)
            mean_m = sum(m * p for (_, m), p in atoms)
            total = sum(p for _, p in atoms)
            assert total == pytest.approx(1.0)
            assert mean_k == pytest.approx(kappa)
            assert mean_m == pytest.approx(mu)

    def test_all_atoms_satisfy_ordering(self):
        for kappa, mu in [(1.5, 1.9), (2.3, 2.6), (4.9, 5.0), (1.0, 1.1)]:
            for (k, m), p in fractional_atoms(kappa, mu):
                assert 1 <= k <= m
                assert p > 0

    def test_same_unit_cell_three_atoms(self):
        atoms = fractional_atoms(2.3, 2.7)
        assert len(atoms) <= 3
        mean_k = sum(k * p for (k, _), p in atoms)
        mean_m = sum(m * p for (_, m), p in atoms)
        assert mean_k == pytest.approx(2.3)
        assert mean_m == pytest.approx(2.7)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            fractional_atoms(2.0, 1.5)
        with pytest.raises(ValueError):
            fractional_atoms(0.5, 1.0)


class TestTheorem5:
    @pytest.mark.parametrize(
        "kappa,mu", [(1.0, 1.0), (1.5, 3.5), (2.3, 2.7), (3.0, 4.2), (5.0, 5.0)]
    )
    def test_limited_schedule_exists_with_exact_averages(self, five_channels, kappa, mu):
        s = theorem5_schedule(five_channels, kappa, mu)
        assert s.kappa == pytest.approx(kappa)
        assert s.mu == pytest.approx(mu)
        # Every atom lies in M' (k >= floor(kappa), |M| >= floor(mu)).
        for (k, members), _ in s.support():
            assert k >= int(kappa)
            assert len(members) >= int(mu)

    def test_custom_subset_chooser(self, five_channels):
        s = theorem5_schedule(
            five_channels, 2.0, 3.0, subset_chooser=lambda size: range(5 - size, 5)
        )
        ((k, members),) = [pair for pair, _ in s.support()]
        assert members == frozenset({2, 3, 4})


class TestSectionIVECounterexample:
    """The paper's d = (2, 9, 10) example: limiting the schedule loses delay."""

    @pytest.fixture
    def example_channels(self):
        return ChannelSet.from_vectors(
            risks=[0.0] * 3,
            losses=[0.0] * 3,
            delays=[2.0, 9.0, 10.0],
            rates=[1.0] * 3,
        )

    def test_limited_schedule_is_stuck_at_nine(self, example_channels):
        value = optimal_property_value(
            example_channels, Objective.DELAY, kappa=2.0, mu=3.0, limited=True
        )
        assert value == pytest.approx(9.0)

    def test_unrestricted_schedule_achieves_six(self, example_channels):
        value = optimal_property_value(
            example_channels, Objective.DELAY, kappa=2.0, mu=3.0, limited=False
        )
        assert value == pytest.approx(6.0)

    def test_the_paper_mixture_attains_it(self, example_channels):
        from repro.core.schedule import ShareSchedule

        s = ShareSchedule(
            example_channels,
            {(1, frozenset({0, 1, 2})): 0.5, (3, frozenset({0, 1, 2})): 0.5},
        )
        assert s.kappa == pytest.approx(2.0)
        assert s.mu == pytest.approx(3.0)
        assert s.delay() == pytest.approx(6.0)

    def test_rate_unaffected_by_limiting(self, example_channels):
        """Sec. IV-E: the optimal rate depends only on µ, so limiting the
        schedule does not change it."""
        s_limited = optimal_schedule(
            example_channels, Objective.DELAY, 2.0, 3.0, limited=True
        )
        s_free = optimal_schedule(
            example_channels, Objective.DELAY, 2.0, 3.0, limited=False
        )
        assert s_limited.max_symbol_rate() == pytest.approx(s_free.max_symbol_rate())
