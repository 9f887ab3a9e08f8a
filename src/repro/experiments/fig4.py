"""Figure 4: optimal and actual delay at maximum rate, Delayed setup.

The paper's delay experiment: channels carry the Diverse rates plus added
one-way delays (2.5, 0.25, 12.5, 5, 0.5 ms).  For each (κ, µ), the echo
tool measures mean RTT/2 while traffic is offered at the maximum rate, and
the result is compared to the optimal delay from the Sec. IV-D program
(minimise D(p) at maximum rate).

The paper plots optimal and actual on *separate* axes because the actual
delay is far larger: the dynamic share schedule keeps queues full at
maximum rate, so queueing dominates -- except where a κ has underutilised
channels to spare ("each delay curve is well-behaved beyond a certain
point... exactly the bumps in the rate curve").  The reproduction exhibits
the same regime change.

Like Figure 3, the grid is a :class:`~repro.sweep.SweepSpec`; each point
(including its LP solve) runs through :class:`~repro.sweep.SweepRunner`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.program import Objective, optimal_property_value
from repro.core.rate import optimal_rate
from repro.core.tradeoff import mu_grid
from repro.protocol.config import ProtocolConfig
from repro.sweep import SweepSpec
from repro.workloads.echo import run_echo
from repro.workloads.setups import delay_to_ms, delayed_setup


def fig4_spec(
    kappas: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0),
    mu_step: float = 0.2,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 3,
    quick: bool = False,
    offered_fraction: float = 1.0,
) -> SweepSpec:
    """The Figure 4 sweep as a declarative spec.

    ``offered_fraction`` is the fraction of the optimal rate to offer: 1.0
    is the paper's "at maximum rate"; lower values separate queueing from
    channel delay in the ablation.
    """
    if quick:
        mu_step = max(mu_step, 0.5)
        duration = min(duration, 8.0)
        warmup = min(warmup, 2.0)
    channels = delayed_setup()
    return SweepSpec(
        spec_id="fig4",
        base={
            "duration": duration,
            "warmup": warmup,
            "seed": seed,
            "offered_fraction": offered_fraction,
        },
        grid=[
            {"kappa": kappa, "mu": mu}
            for kappa in kappas
            for mu in mu_grid(kappa, channels.n, mu_step)
        ],
    )


def fig4_point(params: Dict[str, float], seed: int) -> Dict[str, float]:
    """Measure one (κ, µ) delay point against the LP-optimal delay."""
    channels = delayed_setup()
    kappa, mu = params["kappa"], params["mu"]
    optimal_delay = optimal_property_value(
        channels, Objective.DELAY, kappa, mu, at_max_rate=True
    )
    config = ProtocolConfig(
        kappa=kappa,
        mu=mu,
        reassembly_timeout=20.0,
    )
    result = run_echo(
        channels,
        config,
        offered_rate=params["offered_fraction"] * optimal_rate(channels, mu),
        duration=params["duration"],
        warmup=params["warmup"],
        seed=seed,
    )
    return {
        "kappa": kappa,
        "mu": mu,
        "optimal_delay_ms": delay_to_ms(optimal_delay),
        "actual_delay_ms": result.mean_delay_ms,
        "echoes": result.echoes,
    }
