"""Requirement-driven planning: inverse queries over the model."""

import pytest

from repro.core import planner
from repro.core.planner import (
    NoFeasiblePlanError,
    Requirements,
    constrained_schedule,
    plan_max_rate,
)
from repro.core.program import Objective
from repro.core.rate import max_rate, optimal_rate
from repro.lp import InfeasibleError
from tests.lp_oracle import solve_simplex


class TestRequirements:
    def test_validation(self):
        with pytest.raises(ValueError):
            Requirements(max_risk=1.5)
        with pytest.raises(ValueError):
            Requirements(max_loss=-0.1)
        with pytest.raises(ValueError):
            Requirements(max_delay=-1.0)
        with pytest.raises(ValueError):
            Requirements(min_rate=0.0)
        for bound in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Requirements(max_delay=bound)
            with pytest.raises(ValueError):
                Requirements(min_rate=bound)
        with pytest.raises(ValueError):
            Requirements(max_risk=float("nan"))
        with pytest.raises(ValueError):
            Requirements(max_loss=float("nan"))

    def test_any_bound(self):
        assert not Requirements().any_bound()
        assert Requirements(max_loss=0.1).any_bound()
        assert not Requirements(min_rate=5.0).any_bound()


class TestConstrainedSchedule:
    def test_unconstrained_matches_plain_program(self, five_channels):
        from repro.core.program import optimal_schedule

        constrained = constrained_schedule(
            five_channels, 2.0, 3.0, Requirements(), at_max_rate=True
        )
        plain = optimal_schedule(
            five_channels, Objective.PRIVACY, 2.0, 3.0, at_max_rate=True
        )
        assert constrained.privacy_risk() == pytest.approx(plain.privacy_risk(), abs=1e-9)

    def test_loss_bound_is_respected(self, five_channels):
        requirements = Requirements(max_loss=0.001)
        schedule = constrained_schedule(five_channels, 2.0, 3.5, requirements)
        assert schedule.loss() <= 0.001 + 1e-9
        assert schedule.kappa == pytest.approx(2.0, abs=1e-6)
        assert schedule.mu == pytest.approx(3.5, abs=1e-6)

    def test_bound_costs_objective(self, five_channels):
        """Constraining loss can only worsen (or keep) the optimal risk."""
        from repro.core.program import optimal_property_value

        free = constrained_schedule(five_channels, 2.0, 3.5, Requirements())
        best_loss = optimal_property_value(
            five_channels, Objective.LOSS, 2.0, 3.5, at_max_rate=True
        )
        # A bound strictly between the loss-optimal value and the
        # risk-optimal schedule's loss is feasible but binding.
        bound = best_loss + 0.25 * (free.loss() - best_loss)
        tight = constrained_schedule(
            five_channels, 2.0, 3.5, Requirements(max_loss=bound)
        )
        assert tight.loss() <= bound + 1e-9
        assert tight.privacy_risk() >= free.privacy_risk() - 1e-9

    def test_impossible_bound_raises(self, five_channels):
        with pytest.raises(InfeasibleError):
            constrained_schedule(
                five_channels, 2.0, 2.0, Requirements(max_loss=1e-12)
            )

    def test_delay_bound(self, five_channels):
        schedule = constrained_schedule(
            five_channels, 1.0, 2.0, Requirements(max_delay=0.3), at_max_rate=False
        )
        assert schedule.delay() <= 0.3 + 1e-9

    def test_simplex_backend_with_inequalities(self, five_channels, monkeypatch):
        requirements = Requirements(max_loss=0.002)
        highs = constrained_schedule(five_channels, 2.0, 3.0, requirements)
        monkeypatch.setattr(planner, "solve", solve_simplex)
        oracle = constrained_schedule(five_channels, 2.0, 3.0, requirements)
        assert oracle.privacy_risk() == pytest.approx(highs.privacy_risk(), abs=1e-7)


class TestPlanMaxRate:
    def test_unconstrained_plan_is_full_rate(self, five_channels):
        plan = plan_max_rate(five_channels, Requirements())
        assert plan.rate == pytest.approx(max_rate(five_channels))
        assert plan.mu == pytest.approx(1.0)

    def test_risk_requirement_forces_higher_kappa(self, five_channels):
        lenient = plan_max_rate(five_channels, Requirements())
        strict = plan_max_rate(five_channels, Requirements(max_risk=0.01))
        assert strict.risk <= 0.01 + 1e-9
        assert strict.rate <= lenient.rate
        assert strict.kappa > lenient.kappa

    def test_loss_requirement_forces_redundancy(self, five_channels):
        plan = plan_max_rate(five_channels, Requirements(max_loss=1e-4))
        assert plan.loss <= 1e-4 + 1e-9
        assert plan.mu > plan.kappa  # redundancy present

    def test_plan_meets_reports_truth(self, five_channels):
        requirements = Requirements(max_risk=0.05, max_loss=0.01)
        plan = plan_max_rate(five_channels, requirements)
        assert plan.meets(requirements)
        assert not plan.meets(Requirements(max_risk=plan.risk / 2))
        assert not plan.meets(Requirements(min_rate=plan.rate * 2))

    def test_min_rate_prunes_search(self, five_channels):
        # Demand more rate than the strictest-privacy config can deliver.
        with pytest.raises(NoFeasiblePlanError):
            plan_max_rate(
                five_channels,
                Requirements(max_risk=1e-4, min_rate=0.9 * max_rate(five_channels)),
            )

    def test_impossible_requirements_raise(self, five_channels):
        with pytest.raises(NoFeasiblePlanError):
            plan_max_rate(five_channels, Requirements(max_risk=0.0, max_loss=0.0))

    def test_rate_matches_theorem4_at_plan_mu(self, five_channels):
        plan = plan_max_rate(five_channels, Requirements(max_risk=0.05))
        assert plan.rate == pytest.approx(optimal_rate(five_channels, plan.mu))
        assert plan.schedule.max_symbol_rate() == pytest.approx(plan.rate, rel=1e-6)
