"""The "under attack" scenario sweep: Figures 3-7's robustness counterpart.

The paper's figures measure the protocol against *benign* channels; this
grid measures the same (κ, µ)-parameterised protocol against each
canonical active-adversary scenario (docs/ADVERSARY.md).  Each point runs
the seeded :func:`~repro.adversary.active.harness.run_under_attack`
harness and reports the quantities the robustness claims are stated in:
delivery ratio, silent corruption (must be zero), detected corruption and
replay rates, and the κ-floor audit.

Like the figure grids, the sweep is a :class:`~repro.sweep.SweepSpec`
executed by :class:`~repro.sweep.SweepRunner`, so per-point seeds derive
from the (spec_id, params) identity and ``--jobs`` fan-out cannot change
any row.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.adversary.active.harness import run_under_attack
from repro.adversary.active.scenarios import CANONICAL_ATTACKS, canonical_attack
from repro.sweep import SweepSpec

#: Byzantine tolerance used throughout the attack grid; µ is derived as
#: κ + 2e so the robust completion rule floor(µ) >= floor(κ) + 2e always
#: holds across the κ axis.
TOLERANCE = 1


def attack_spec(
    scenarios: Optional[Sequence[str]] = None,
    kappas: Sequence[float] = (1.0, 2.0, 3.0),
    duration: float = 30.0,
    warmup: float = 4.0,
    seed: int = 11,
    quick: bool = False,
    resilience: bool = False,
    auth: bool = False,
) -> SweepSpec:
    """The under-attack sweep as a declarative spec."""
    if scenarios is None:
        scenarios = tuple(sorted(CANONICAL_ATTACKS))
    unknown = sorted(set(scenarios) - set(CANONICAL_ATTACKS))
    if unknown:
        raise ValueError(
            f"unknown attack scenarios {unknown}; expected from {sorted(CANONICAL_ATTACKS)}"
        )
    if quick:
        duration = min(duration, 12.0)
        warmup = min(warmup, 2.0)
        kappas = kappas[:2]
    base = {
        "duration": duration,
        "warmup": warmup,
        "seed": seed,
        "resilience": resilience,
    }
    if auth:
        # Only present when armed: point identity (and thus every derived
        # seed) of the existing unauthenticated grid must not change.
        base["auth"] = True
    return SweepSpec(
        spec_id="attack",
        base=base,
        grid=[
            {"scenario": scenario, "kappa": kappa}
            for scenario in scenarios
            for kappa in kappas
        ],
    )


def attack_point(params: Dict, seed: int) -> Dict:
    """Measure one (scenario, κ) point of the under-attack grid."""
    kappa = params["kappa"]
    warmup = params["warmup"]
    duration = params["duration"]
    auth = params.get("auth", False)
    plan = canonical_attack(params["scenario"], warmup, warmup + duration)
    row = run_under_attack(
        plan,
        kappa=kappa,
        mu=kappa + 2 * TOLERANCE,
        tolerance=TOLERANCE,
        duration=duration,
        warmup=warmup,
        seed=seed,
        resilience=params["resilience"],
        auth=auth,
    )
    receiver = row["receiver"]
    shares = receiver["shares_received"]
    out = {
        "scenario": params["scenario"],
        "kappa": kappa,
        "delivery_ratio": round(row["delivery_ratio"], 6),
        "wrong_payloads": row["wrong_payloads"],
        "reconstruction_errors": receiver["reconstruction_errors"],
        "corrupt_detected_rate": (
            round(receiver["corrupt_shares_detected"] / shares, 6) if shares else 0.0
        ),
        "replayed_dropped": receiver["replayed_shares_dropped"],
        "evicted_symbols": receiver["evicted_symbols"],
        "min_k_sampled": row["min_k_sampled"],
        "kappa_floor_held": row["kappa_floor_held"],
        "admission_paused_drops": row["admission_paused_drops"],
        "attack_applied": row["attack"]["applied"],
        "digest": row["digest"],
    }
    if auth:
        # Auth-only fields ride along only when armed, so the committed
        # unauthenticated rows keep their exact shape.
        out["auth_armed"] = True
        out["auth_failed_shares"] = receiver["auth_failed_shares"]
        out["auth_verified_shares"] = receiver["auth_verified_shares"]
    return out
