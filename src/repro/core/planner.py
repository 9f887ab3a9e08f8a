"""Requirement-driven planning: inverting the model.

The paper's results answer "given (κ, µ), what is optimal?".  A deployer
asks the reverse: *"I need risk below 1e-3 and loss below 0.5% -- what is
the fastest configuration that delivers it?"*  This module answers that by
searching the (κ, µ) grid from the highest-rate corner and solving, at each
point, a linear program whose inequality rows encode the requirements:

    minimise  Z(p)              (or another chosen objective)
    s.t.      the Sec. IV-B/IV-D equality constraints for (κ, µ)
              L(p) <= max_loss        (if required)
              D(p) <= max_delay      (if required)
              Z(p) <= max_risk        (if required)

Because the optimal rate is a function of µ alone (Theorem 4), scanning µ
upward enumerates configurations in strictly non-increasing rate order, so
the first feasible point is the rate-optimal plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.channel import ChannelSet
from repro.core.program import Objective, build_program
from repro.core.properties import subset_delay, subset_loss, subset_risk
from repro.core.rate import optimal_rate
from repro.core.schedule import ShareSchedule
from repro.lp import InfeasibleError, LinearProgram, solve


class NoFeasiblePlanError(Exception):
    """No (κ, µ, schedule) combination satisfies the requirements."""


@dataclass(frozen=True)
class Requirements:
    """Bounds a deployment must satisfy (None = unconstrained).

    Attributes:
        max_risk: upper bound on the schedule risk Z(p).
        max_loss: upper bound on the schedule loss L(p).
        max_delay: upper bound on the schedule delay D(p).
        min_rate: lower bound on the sustained symbol rate.
    """

    max_risk: Optional[float] = None
    max_loss: Optional[float] = None
    max_delay: Optional[float] = None
    min_rate: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_risk", "max_loss"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        # Chained comparisons so NaN, which compares False, fails too.
        if self.max_delay is not None and not 0.0 <= self.max_delay < math.inf:
            raise ValueError(
                f"max_delay must be finite and nonnegative, got {self.max_delay}"
            )
        if self.min_rate is not None and not 0.0 < self.min_rate < math.inf:
            raise ValueError(f"min_rate must be finite and positive, got {self.min_rate}")

    def any_bound(self) -> bool:
        return any(
            value is not None
            for value in (self.max_risk, self.max_loss, self.max_delay)
        )


@dataclass(frozen=True)
class Plan:
    """A concrete deployable configuration."""

    kappa: float
    mu: float
    rate: float
    schedule: ShareSchedule
    risk: float
    loss: float
    delay: float

    def meets(self, requirements: Requirements, tolerance: float = 1e-7) -> bool:
        """Whether this plan satisfies every bound in ``requirements``."""
        checks = [
            (requirements.max_risk, self.risk),
            (requirements.max_loss, self.loss),
            (requirements.max_delay, self.delay),
        ]
        if any(bound is not None and value > bound + tolerance for bound, value in checks):
            return False
        if requirements.min_rate is not None and self.rate < requirements.min_rate - tolerance:
            return False
        return True


#: Grid steps of :func:`plan_max_rate`'s (κ, µ) scan.
KAPPA_STEP = 0.5
MU_STEP = 0.25


def constrained_schedule(
    channels: ChannelSet,
    kappa: float,
    mu: float,
    requirements: Requirements,
    objective: Objective = Objective.PRIVACY,
    at_max_rate: bool = True,
) -> ShareSchedule:
    """The objective-optimal schedule at (κ, µ) satisfying the requirements.

    Raises:
        repro.lp.InfeasibleError: if no schedule at this (κ, µ) satisfies
            the property bounds.
    """
    program, pairs = build_program(
        channels, objective, kappa, mu, at_max_rate=at_max_rate
    )
    ub_rows: List[np.ndarray] = []
    ub_rhs: List[float] = []
    for bound, formula in (
        (requirements.max_risk, subset_risk),
        (requirements.max_loss, subset_loss),
        (requirements.max_delay, subset_delay),
    ):
        if bound is None:
            continue
        ub_rows.append(
            np.array([formula(channels, k, members) for k, members in pairs])
        )
        ub_rhs.append(float(bound))
    if ub_rows:
        program = LinearProgram(
            c=program.c,
            a_eq=program.a_eq,
            b_eq=program.b_eq,
            a_ub=np.vstack(ub_rows),
            b_ub=np.array(ub_rhs),
            names=program.names,
        )
    solution = solve(program)
    return ShareSchedule.from_arrays(channels, pairs, solution.x)


def _plan_from_schedule(
    channels: ChannelSet, kappa: float, mu: float, schedule: ShareSchedule
) -> Plan:
    return Plan(
        kappa=kappa,
        mu=mu,
        rate=optimal_rate(channels, mu),
        schedule=schedule,
        risk=schedule.privacy_risk(),
        loss=schedule.loss(),
        delay=schedule.delay(),
    )


def plan_max_rate(
    channels: ChannelSet,
    requirements: Requirements,
    min_kappa: float = 1.0,
) -> Plan:
    """The fastest configuration meeting the requirements.

    Scans µ upward in steps of :data:`MU_STEP` (rate downward, by
    Theorem 4); at each µ, scans κ in steps of :data:`KAPPA_STEP` from high
    to low privacy and accepts the first requirement-satisfying schedule.
    The returned plan therefore has the maximum achievable rate, with Z(p)
    minimised among schedules at the accepted (κ, µ).

    ``min_kappa`` restricts the search to κ >= min_kappa: the resilience
    layer's failover uses it as the privacy floor, so a degraded-channel
    re-plan can trade rate but never threshold (docs/RESILIENCE.md).

    Raises:
        NoFeasiblePlanError: if no grid point satisfies the requirements.
        ValueError: if ``min_kappa < 1``.
    """
    if min_kappa < 1.0:
        raise ValueError(f"min_kappa must be >= 1, got {min_kappa}")
    n = channels.n
    mu_values = [round(1.0 + i * MU_STEP, 10) for i in range(int((n - 1) / MU_STEP) + 1)]
    if mu_values[-1] < n:
        mu_values.append(float(n))
    tolerance = 1e-9
    for mu in mu_values:
        if mu < min_kappa - tolerance:
            continue  # κ <= µ always; no room for the floor at this µ
        rate = optimal_rate(channels, mu)
        if requirements.min_rate is not None and rate < requirements.min_rate:
            break  # rate only falls from here on
        kappa_values = [
            round(1.0 + i * KAPPA_STEP, 10)
            for i in range(int((mu - 1.0) / KAPPA_STEP) + 1)
        ]
        if kappa_values[-1] < mu:
            kappa_values.append(mu)
        # µ >= min_kappa here and µ itself is always on the grid, so the
        # filtered list is never empty.
        kappa_values = [k for k in kappa_values if k >= min_kappa - tolerance]
        # Prefer high κ (better privacy) among equal-rate plans.
        for kappa in reversed(kappa_values):
            try:
                schedule = constrained_schedule(channels, kappa, mu, requirements)
            except InfeasibleError:
                continue
            plan = _plan_from_schedule(channels, kappa, mu, schedule)
            if plan.meets(requirements):
                return plan
    raise NoFeasiblePlanError(
        f"no (κ, µ) grid point over n={n} channels satisfies {requirements}"
    )
