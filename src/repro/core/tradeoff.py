"""Tradeoff frontier sweeps over the (κ, µ) parameter plane.

The experiments (and the tradeoff-exploration example) repeatedly ask the
same question: *for each parameter point, what are the optimal privacy,
loss, delay and rate?*  This module packages that sweep so the figure
drivers and examples share one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.channel import ChannelSet
from repro.core.program import Objective, optimal_property_value
from repro.core.rate import optimal_rate
from repro.lp import InfeasibleError


@dataclass(frozen=True)
class TradeoffPoint:
    """Optimal property values at one (κ, µ) parameter point.

    ``None`` for a property means the corresponding program was infeasible
    (possible only for limited schedules at maximum rate).
    """

    kappa: float
    mu: float
    rate: float
    privacy_risk: Optional[float]
    loss: Optional[float]
    delay: Optional[float]


def mu_grid(kappa: float, n: int, step: float = 0.1) -> List[float]:
    """The paper's sweep grid: µ from κ to n in the given step (Sec. VI-A).

    The grid always ends exactly at n, even when the step does not divide
    the range evenly.  κ must lie in [1, n], or the grid would hold a µ
    below κ or below 1, and the step must be finite and positive, or the
    grid would never reach n (ValueError).
    """
    if not (1 <= kappa <= n and math.isfinite(step) and step > 0):
        raise ValueError(
            f"mu_grid needs 1 <= κ <= n and a step > 0, got κ={kappa}, n={n}, step={step}"
        )
    values: List[float] = []
    i = 0
    while True:
        value = round(kappa + i * step, 10)
        if value >= n - 1e-12:
            break
        values.append(value)
        i += 1
    values.append(float(n))
    return values


def sweep_tradeoffs(
    channels: ChannelSet,
    kappas: Sequence[float],
    step: float = 0.1,
    at_max_rate: bool = True,
    limited: bool = False,
    objectives: Sequence[Objective] = (Objective.PRIVACY, Objective.LOSS, Objective.DELAY),
) -> Iterator[TradeoffPoint]:
    """Yield the optimal tradeoff surface over the (κ, µ) grid.

    For each κ in ``kappas`` and each µ from κ to n (step ``step``),
    computes the Theorem-4 optimal rate and the LP-optimal value of each
    requested property.  Infeasible points yield ``None`` for the affected
    property rather than aborting the sweep.
    """
    for kappa in kappas:
        for mu in mu_grid(kappa, channels.n, step):
            values = {}
            for objective in objectives:
                try:
                    values[objective] = optimal_property_value(
                        channels,
                        objective,
                        kappa,
                        mu,
                        at_max_rate=at_max_rate,
                        limited=limited,
                    )
                except InfeasibleError:
                    values[objective] = None
            yield TradeoffPoint(
                kappa=kappa,
                mu=mu,
                rate=optimal_rate(channels, mu),
                privacy_risk=values.get(Objective.PRIVACY),
                loss=values.get(Objective.LOSS),
                delay=values.get(Objective.DELAY),
            )


def frontier_matrix(
    points: Sequence[TradeoffPoint],
    attribute: str,
) -> np.ndarray:
    """Arrange sweep results as a dense (kappa, mu, value) array for reports.

    Args:
        points: output of :func:`sweep_tradeoffs` (materialised).
        attribute: one of "rate", "privacy_risk", "loss", "delay".

    Returns:
        Array of shape (len(points), 3): columns are κ, µ and the value
        (NaN where the program was infeasible).
    """
    rows = []
    for point in points:
        value = getattr(point, attribute)
        rows.append((point.kappa, point.mu, np.nan if value is None else value))
    return np.array(rows)
