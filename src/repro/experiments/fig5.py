"""Figure 5: loss at maximum rate on the Lossy setup.

The paper's second experiment: with channels in the Lossy configuration
(1, 0.5, 1, 2, 3 percent per direction), traffic is offered at the maximum
rate for each (κ, µ) and the receiver-side datagram loss percentage is
compared against the optimal loss computed by the Sec. IV-D linear program
(minimise L(p) subject to the maximum-rate utilisation constraints).

The paper observes the actual loss tracking the optimum closely for most
parameters, with implementation-specific spikes (e.g. κ=3, µ=3.8) caused
by the dynamic channel-selection heuristic interacting badly with the
specific channel proportions; the "fixed" selector ordering reproduces
that pathology more strongly (the ablation run is
``tests/test_experiments.py::TestFig5::test_fixed_selector_ablation``).

Like Figure 3, the grid is a :class:`~repro.sweep.SweepSpec` executed by
:class:`~repro.sweep.SweepRunner`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.program import Objective, optimal_property_value
from repro.core.tradeoff import mu_grid
from repro.protocol.config import ProtocolConfig
from repro.sweep import SweepSpec
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import lossy_setup


def fig5_spec(
    kappas: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0),
    mu_step: float = 0.1,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 2,
    quick: bool = False,
    selector_ordering: str = "headroom",
) -> SweepSpec:
    """The Figure 5 sweep as a declarative spec.

    ``selector_ordering`` picks the protocol's channel-selector order;
    ``"fixed"`` is the ablation that reproduces the paper's pathologies.
    """
    if quick:
        mu_step = max(mu_step, 0.5)
        duration = min(duration, 10.0)
        warmup = min(warmup, 2.0)
    channels = lossy_setup()
    return SweepSpec(
        spec_id="fig5",
        base={
            "duration": duration,
            "warmup": warmup,
            "seed": seed,
            "selector_ordering": selector_ordering,
        },
        grid=[
            {"kappa": kappa, "mu": mu}
            for kappa in kappas
            for mu in mu_grid(kappa, channels.n, mu_step)
        ],
    )


def fig5_point(params: Dict[str, float], seed: int) -> Dict[str, float]:
    """Measure one (κ, µ) loss point against the LP-optimal loss.

    The measured loss is receiver-side and excludes sender source drops.
    """
    channels = lossy_setup()
    kappa, mu = params["kappa"], params["mu"]
    optimal_loss = optimal_property_value(
        channels, Objective.LOSS, kappa, mu, at_max_rate=True
    )
    config = ProtocolConfig(
        kappa=kappa,
        mu=mu,
        share_synthetic=True,
        selector_ordering=params["selector_ordering"],
        # Loss runs complete symbols out of order; keep eviction
        # generous so slow shares are not miscounted as loss.
        reassembly_timeout=10.0,
    )
    result = run_iperf(
        channels,
        config,
        # The paper offers at the rate *measured* in experiment 1,
        # i.e. the protocol's achievable (header-adjusted) rate.
        offered_rate=practical_max_rate(channels, mu, config.symbol_size),
        duration=params["duration"],
        warmup=params["warmup"],
        seed=seed,
    )
    return {
        "kappa": kappa,
        "mu": mu,
        "optimal_loss_pct": 100.0 * optimal_loss,
        "actual_loss_pct": result.loss_percent,
        "achieved_rate": result.achieved_rate,
    }
