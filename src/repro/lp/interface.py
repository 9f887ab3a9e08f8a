"""Problem description and the HiGHS solve for linear programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class InfeasibleError(Exception):
    """The linear program has no feasible point."""


class UnboundedError(Exception):
    """The linear program's objective is unbounded below."""


@dataclass(frozen=True)
class LinearProgram:
    """An LP: minimise ``c @ x`` s.t. ``A_eq x = b_eq``, ``A_ub x <= b_ub``,
    ``x >= 0``.

    The paper's programs (Sec. IV-B and IV-D) are purely equality-
    constrained; the inequality rows exist for the requirement-driven
    planner (bound L(p) or D(p) while optimising another property).

    Attributes:
        c: objective coefficients, shape (n,).
        a_eq: equality constraint matrix, shape (m, n).
        b_eq: equality right-hand side, shape (m,).
        a_ub: optional inequality matrix, shape (p, n).
        b_ub: optional inequality right-hand side, shape (p,).
        names: optional variable labels used in error messages and reports.
    """

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    names: "tuple[str, ...]" = field(default=())

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        a = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        b = np.asarray(self.b_eq, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)
        if a.shape != (len(b), len(c)):
            raise ValueError(
                f"inconsistent LP shapes: c has {len(c)} vars, A is {a.shape}, b has {len(b)} rows"
            )
        if (self.a_ub is None) != (self.b_ub is None):
            raise ValueError("a_ub and b_ub must be given together")
        if self.a_ub is not None:
            a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
            b_ub = np.asarray(self.b_ub, dtype=float)
            object.__setattr__(self, "a_ub", a_ub)
            object.__setattr__(self, "b_ub", b_ub)
            if a_ub.shape != (len(b_ub), len(c)):
                raise ValueError(
                    f"inconsistent inequality shapes: A_ub is {a_ub.shape}, "
                    f"b_ub has {len(b_ub)} rows, c has {len(c)} vars"
                )
        if self.names and len(self.names) != len(c):
            raise ValueError("names must match the number of variables")

    @property
    def num_vars(self) -> int:
        return len(self.c)

    @property
    def num_constraints(self) -> int:
        extra = 0 if self.b_ub is None else len(self.b_ub)
        return len(self.b_eq) + extra


@dataclass(frozen=True)
class LPSolution:
    """An optimal solution to a :class:`LinearProgram`.

    Attributes:
        x: optimal variable values, shape (n,).
        objective: optimal objective value ``c @ x``.
    """

    x: np.ndarray
    objective: float


def solve(problem: LinearProgram) -> LPSolution:
    """Solve a linear program with ``scipy.optimize.linprog`` (HiGHS).

    Raises:
        InfeasibleError: no feasible point exists.
        UnboundedError: the objective is unbounded below.
        RuntimeError: any other solver failure.
    """
    # Imported here so that importing the model does not load scipy.optimize.
    from scipy.optimize import linprog

    result = linprog(
        c=problem.c,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        bounds=[(0, None)] * problem.num_vars,
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleError(f"no feasible schedule exists: {result.message}")
    if result.status == 3:
        raise UnboundedError(f"objective is unbounded below: {result.message}")
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"linprog failed: {result.message}")
    return LPSolution(x=result.x, objective=float(result.fun))
