"""Figure 3: optimal and actual rate over (κ, µ), Identical and Diverse.

The paper's first experiment: for each κ, the protocol's transmission rate
is measured at values of µ from κ to 5 in steps of 0.1 and compared to the
Theorem-4 optimum.  On the Identical setup the curve is smooth (Corollary
1: every µ fully utilises identical channels); on the Diverse setup the
curve is bumpy, each bump marking a channel that can no longer be fully
utilised (Theorem 2).  The paper reports the implementation within 3% of
optimal on Identical and 4% on Diverse.

The (κ, µ) grid is enumerated as a :class:`~repro.sweep.SweepSpec`, so the
whole figure runs through :class:`~repro.sweep.SweepRunner` -- serially by
default, or fanned out over ``jobs`` worker processes with identical
results (each point's seed is derived from its identity, not from worker
order).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.channel import ChannelSet
from repro.core.rate import optimal_rate
from repro.core.tradeoff import mu_grid
from repro.protocol.config import ProtocolConfig
from repro.sweep import SweepSpec
from repro.workloads.iperf import run_iperf
from repro.workloads.setups import diverse_setup, identical_setup, rate_to_mbps

#: Offered load for every measurement, in symbols per unit time.  The
#: paper offers 1000 Mbps, far above any setup's capacity, so the sender
#: is always saturated; 1000 symbols/unit is the same number on our axis.
OFFERED_RATE = 1000.0


def fig3_channels(setup: str) -> ChannelSet:
    """The two setups of Figure 3: "identical" (100 Mbps) or "diverse"."""
    if setup == "identical":
        return identical_setup(100.0)
    if setup == "diverse":
        return diverse_setup()
    raise ValueError(f"unknown Figure 3 setup {setup!r}")


def fig3_spec(
    setup: str = "identical",
    kappas: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0),
    mu_step: float = 0.1,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 1,
    quick: bool = False,
) -> SweepSpec:
    """The Figure 3 sweep as a declarative spec (one point per (κ, µ)).

    ``setup`` is "identical" or "diverse"; the defaults are the paper's
    grid and ``quick`` coarsens it (µ step 0.5, shorter windows).  Each
    point derives its seed from ``seed`` and its identity
    (:func:`repro.sweep.derive_seed`).
    """
    if quick:
        mu_step = max(mu_step, 0.5)
        duration = min(duration, 10.0)
        warmup = min(warmup, 2.0)
    channels = fig3_channels(setup)
    return SweepSpec(
        spec_id=f"fig3/{setup}",
        base={"setup": setup, "duration": duration, "warmup": warmup, "seed": seed},
        grid=[
            {"kappa": kappa, "mu": mu}
            for kappa in kappas
            for mu in mu_grid(kappa, channels.n, mu_step)
        ],
    )


def fig3_point(params: Dict[str, float], seed: int) -> Dict[str, float]:
    """Measure one (κ, µ) grid point; picklable for process-pool fan-out.

    The row holds the optimal and achieved rate, in symbols/unit and in
    Mbps, and their ratio.
    """
    channels = fig3_channels(params["setup"])
    kappa, mu = params["kappa"], params["mu"]
    config = ProtocolConfig(kappa=kappa, mu=mu, share_synthetic=True)
    result = run_iperf(
        channels,
        config,
        offered_rate=OFFERED_RATE,
        duration=params["duration"],
        warmup=params["warmup"],
        seed=seed,
    )
    optimum = optimal_rate(channels, mu)
    return {
        "kappa": kappa,
        "mu": mu,
        "optimal_rate": optimum,
        "achieved_rate": result.achieved_rate,
        "optimal_mbps": rate_to_mbps(optimum),
        "achieved_mbps": result.achieved_mbps,
        "ratio": result.achieved_rate / optimum,
    }
