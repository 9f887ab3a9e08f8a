"""Two-phase dense simplex with Bland's anti-cycling rule: the LP test oracle.

``repro.lp.solve`` runs HiGHS.  This is a deliberately straightforward,
dependency-free tableau implementation that the tests solve the same
programs with and compare against: the paper's share-schedule programs
are small (for n = 5 channels there are 80 schedule variables and at most
9 constraints), so clarity and numerical robustness matter more than
sparse-matrix performance.
"""

from __future__ import annotations

import numpy as np

from repro.lp import InfeasibleError, LinearProgram, LPSolution, UnboundedError

#: Feasibility/optimality tolerance.  The schedule coefficients are exact
#: probabilities and small rationals, so a loose-ish tolerance is safe.
TOLERANCE = 1e-9

#: Iteration cap; Bland's rule guarantees termination but a cap converts a
#: latent bug into a loud error rather than a hang.
MAX_ITERATIONS = 100_000


def to_standard_form(problem: LinearProgram) -> LinearProgram:
    """Fold inequalities into equalities with slack variables.

    Returns ``problem`` when there are no inequality rows.  The solution
    vector of the standard-form program has the slack values appended;
    callers should truncate to :attr:`~LinearProgram.num_vars` of the
    original.
    """
    if problem.a_ub is None:
        return problem
    num_slack = len(problem.b_ub)
    c = np.concatenate([problem.c, np.zeros(num_slack)])
    top = np.hstack([problem.a_eq, np.zeros((len(problem.b_eq), num_slack))])
    bottom = np.hstack([problem.a_ub, np.eye(num_slack)])
    return LinearProgram(
        c=c,
        a_eq=np.vstack([top, bottom]),
        b_eq=np.concatenate([problem.b_eq, problem.b_ub]),
    )


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the tableau so that variable ``col`` enters the basis at ``row``."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray) -> None:
    """Optimise the tableau in place.

    The last row is the (negated-objective) cost row; the last column is the
    right-hand side.  Bland's rule: entering variable is the lowest-index
    column with a negative reduced cost; leaving row is the lowest-index
    (by basis variable) among the minimum-ratio rows.

    Raises:
        UnboundedError: if an entering column has no positive entries.
    """
    num_rows = tableau.shape[0] - 1
    for _ in range(MAX_ITERATIONS):
        cost_row = tableau[-1, :-1]
        entering_candidates = np.nonzero(cost_row < -TOLERANCE)[0]
        if len(entering_candidates) == 0:
            return
        col = int(entering_candidates[0])  # Bland: smallest index
        ratios = np.full(num_rows, np.inf)
        column = tableau[:num_rows, col]
        positive = column > TOLERANCE
        ratios[positive] = tableau[:num_rows, -1][positive] / column[positive]
        best = np.min(ratios)
        if not np.isfinite(best):
            raise UnboundedError("objective is unbounded below")
        # Bland tie-break: among minimum-ratio rows, leave the basis variable
        # with the smallest index.
        tied_rows = np.nonzero(ratios <= best + TOLERANCE)[0]
        row = int(min(tied_rows, key=lambda r: basis[r]))
        _pivot(tableau, basis, row, col)
    raise RuntimeError("simplex iteration cap exceeded")  # pragma: no cover


def solve_simplex(problem: LinearProgram) -> LPSolution:
    """Solve an LP with the two-phase simplex method.

    Raises:
        InfeasibleError: no feasible point exists.
        UnboundedError: the objective is unbounded below.
    """
    original_vars = problem.num_vars
    problem = to_standard_form(problem)
    a = problem.a_eq.copy()
    b = problem.b_eq.copy()
    c = problem.c.copy()
    num_cons, num_vars = a.shape

    # Normalise to b >= 0 so artificial variables start feasible.
    negative = b < 0
    a[negative] *= -1
    b[negative] *= -1

    # --- Phase 1: minimise the sum of artificial variables. ---
    # Tableau columns: [real vars | artificials | rhs].
    tableau = np.zeros((num_cons + 1, num_vars + num_cons + 1))
    tableau[:num_cons, :num_vars] = a
    tableau[:num_cons, num_vars : num_vars + num_cons] = np.eye(num_cons)
    tableau[:num_cons, -1] = b
    # Phase-1 cost row: sum of artificials, expressed in terms of non-basics.
    tableau[-1, :num_vars] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = np.arange(num_vars, num_vars + num_cons)

    _run_simplex(tableau, basis)
    phase1_obj = -tableau[-1, -1]
    if phase1_obj > 1e-7:
        raise InfeasibleError(
            f"no feasible schedule exists (phase-1 objective {phase1_obj:.3e})"
        )

    # Drive any artificial variables that linger in the basis at level zero
    # out of it (or drop their redundant rows).
    for row in range(num_cons):
        if basis[row] >= num_vars:
            pivot_col = next(
                (j for j in range(num_vars) if abs(tableau[row, j]) > TOLERANCE),
                None,
            )
            if pivot_col is not None:
                _pivot(tableau, basis, row, pivot_col)
            # else: the row is redundant (all-zero over real vars); leaving
            # the zero-level artificial basic is harmless for phase 2.

    # --- Phase 2: original objective over real variables only. ---
    tableau2 = np.zeros((num_cons + 1, num_vars + 1))
    tableau2[:num_cons, :num_vars] = tableau[:num_cons, :num_vars]
    tableau2[:num_cons, -1] = tableau[:num_cons, -1]
    # Express the objective in terms of the current basis.
    cost = c.astype(float).copy()
    rhs = 0.0
    for row in range(num_cons):
        var = basis[row]
        if var < num_vars and abs(cost[var]) > 0:
            coeff = cost[var]
            cost -= coeff * tableau2[row, :num_vars]
            rhs -= coeff * tableau2[row, -1]
    tableau2[-1, :num_vars] = cost
    tableau2[-1, -1] = rhs
    # Columns for basic artificial variables (redundant rows) do not exist in
    # tableau2; mark such rows by a sentinel basis index beyond num_vars, and
    # they will simply never be chosen as pivot rows with positive entries in
    # real columns (their real-variable rows are all zero).
    _run_simplex(tableau2, basis)

    x = np.zeros(num_vars)
    for row in range(num_cons):
        if basis[row] < num_vars:
            x[basis[row]] = tableau2[row, -1]
    # Clamp tiny negative noise.
    x[np.abs(x) < TOLERANCE] = np.abs(x[np.abs(x) < TOLERANCE])
    objective = float(problem.c @ x)
    # Truncate slack variables added by to_standard_form().
    return LPSolution(x=x[:original_vars], objective=objective)
