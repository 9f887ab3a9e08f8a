"""Linear programming substrate.

The paper's optimal share schedules (Sec. IV-B and IV-D) are computed by
linear programs over the schedule probabilities ``p(k, M)``.  This package
provides :class:`~repro.lp.interface.LinearProgram` -- minimise ``c @ x``
subject to ``A_eq @ x = b_eq``, optional ``A_ub @ x <= b_ub``, ``x >= 0``,
which is the shape of every program in the paper and the planner -- and
:func:`~repro.lp.interface.solve`, which runs ``scipy.optimize.linprog``
(HiGHS).  The test suite cross-checks it against an independent two-phase
simplex (``tests/lp_oracle.py``).
"""

from repro.lp.interface import (
    InfeasibleError,
    LinearProgram,
    LPSolution,
    UnboundedError,
    solve,
)

__all__ = [
    "LinearProgram",
    "LPSolution",
    "InfeasibleError",
    "UnboundedError",
    "solve",
]
