"""The LP layer: problem validation, HiGHS solve, simplex-oracle cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import (
    InfeasibleError,
    LinearProgram,
    UnboundedError,
    solve,
)
from tests.lp_oracle import solve_simplex


class TestLinearProgram:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])

    def test_names_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], names=("x",))

    def test_properties(self):
        lp = LinearProgram(c=[1.0, 2.0, 3.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
        assert lp.num_vars == 3


SIMPLE_LP = LinearProgram(
    # minimise x0 + 2 x1 subject to x0 + x1 = 1: optimum at x = (1, 0).
    c=[1.0, 2.0],
    a_eq=[[1.0, 1.0]],
    b_eq=[1.0],
)


@pytest.mark.parametrize(
    "solver",
    [pytest.param(solve_simplex, id="simplex"), pytest.param(solve, id="scipy")],
)
class TestBackends:
    def test_simple(self, solver):
        solution = solver(SIMPLE_LP)
        assert solution.objective == pytest.approx(1.0)
        assert solution.x == pytest.approx([1.0, 0.0])

    def test_two_constraints(self, solver):
        # minimise x0 subject to x0 + x1 = 2, x1 + x2 = 1.
        lp = LinearProgram(
            c=[1.0, 0.0, 0.0],
            a_eq=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
            b_eq=[2.0, 1.0],
        )
        solution = solver(lp)
        assert solution.objective == pytest.approx(1.0)

    def test_negative_rhs_normalised(self, solver):
        # -x0 - x1 = -1 is the same constraint as x0 + x1 = 1.
        lp = LinearProgram(c=[1.0, 2.0], a_eq=[[-1.0, -1.0]], b_eq=[-1.0])
        solution = solver(lp)
        assert solution.objective == pytest.approx(1.0)

    def test_infeasible(self, solver):
        # x0 = 1 and x0 = 2 cannot both hold.
        lp = LinearProgram(
            c=[1.0],
            a_eq=[[1.0], [1.0]],
            b_eq=[1.0, 2.0],
        )
        with pytest.raises(InfeasibleError):
            solver(lp)

    def test_infeasible_negative_requirement(self, solver):
        # x0 + x1 = -1 with x >= 0 is infeasible.
        lp = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[-1.0])
        with pytest.raises(InfeasibleError):
            solver(lp)

    def test_unbounded(self, solver):
        # minimise -x1 with x0 - x1 = 0: x can grow along (t, t) forever.
        lp = LinearProgram(c=[0.0, -1.0], a_eq=[[1.0, -1.0]], b_eq=[0.0])
        with pytest.raises(UnboundedError):
            solver(lp)

    def test_redundant_constraint(self, solver):
        # The same constraint twice (tests phase-1 artificial cleanup).
        lp = LinearProgram(
            c=[1.0, 2.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[1.0, 1.0],
        )
        solution = solver(lp)
        assert solution.objective == pytest.approx(1.0)

    def test_degenerate_vertex(self, solver):
        # Multiple constraints meeting at the optimum (degeneracy exercise
        # for Bland's rule).
        lp = LinearProgram(
            c=[1.0, 1.0, 0.0],
            a_eq=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
            b_eq=[1.0, 1.0],
        )
        solution = solver(lp)
        assert solution.objective == pytest.approx(0.0)
        assert solution.x[2] == pytest.approx(1.0)

    def test_solution_satisfies_constraints(self, solver):
        lp = LinearProgram(
            c=[3.0, 1.0, 4.0, 1.0, 5.0],
            a_eq=[[1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0]],
            b_eq=[1.0, 2.5],
        )
        solution = solver(lp)
        assert lp.a_eq @ solution.x == pytest.approx(lp.b_eq)
        assert (solution.x >= -1e-9).all()


@given(
    costs=st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=8),
    target=st.floats(min_value=0.1, max_value=5.0),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_simplex_matches_scipy_on_random_feasible_lps(costs, target, seed):
    """Random LPs of the schedule shape: distribution + one moment constraint."""
    n = len(costs)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 5.0, size=n)
    # Constraint set: sum x = 1, weights @ x = t for a t inside the
    # attainable range, guaranteeing feasibility.
    t = weights.min() + (weights.max() - weights.min()) * min(target / 5.0, 1.0)
    lp = LinearProgram(
        c=costs,
        a_eq=[np.ones(n), weights],
        b_eq=[1.0, t],
    )
    ours = solve_simplex(lp)
    ref = solve(lp)
    assert ours.objective == pytest.approx(ref.objective, abs=1e-7)
    assert lp.a_eq @ ours.x == pytest.approx(lp.b_eq, abs=1e-7)
