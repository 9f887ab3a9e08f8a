"""Figure 2: choosing M over one unit time to maximise rate, r = (3, 4, 8).

The paper's Figure 2 illustrates how the protocol packs shares into channel
capacity for increasing multiplicity: rows are channels, columns are the
subsets M chosen for successive source symbols.  As µ grows the number of
symbols per unit time falls, and above the Theorem 2 bound not every
channel can stay fully utilised.

This driver reproduces the packing with the greedy water-filling algorithm
(:func:`repro.core.rate.pack_schedule`) and checks the symbol counts
against the Theorem 4 optimum.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.channel import ChannelSet
from repro.core.rate import full_utilization_mu_limit, optimal_rate, pack_schedule

#: The figure's example rate vector.
FIG2_RATES = (3, 4, 8)


def run_fig2(rates: "tuple[int, ...]" = FIG2_RATES) -> List[Dict[str, object]]:
    """Pack shares for every integer multiplicity over ``rates``.

    Returns:
        One row per multiplicity: the packed symbol count, the Theorem 4
        optimum ``⌊R_C⌋``, per-channel share usage, and whether every
        channel was fully utilised (Theorem 2 predicts the cutoff).
    """
    channels = ChannelSet.from_vectors(
        risks=[0.0] * len(rates),
        losses=[0.0] * len(rates),
        delays=[0.0] * len(rates),
        rates=[float(r) for r in rates],
    )
    mu_limit = full_utilization_mu_limit(channels)
    rows = []
    for multiplicity in range(1, len(rates) + 1):
        columns, used = pack_schedule(list(rates), multiplicity)
        optimum = optimal_rate(channels, float(multiplicity))
        rows.append(
            {
                "mu": multiplicity,
                "symbols_packed": len(columns),
                "optimal_floor": int(optimum),
                "share_usage": tuple(used),
                "fully_utilized": all(u == r for u, r in zip(used, rates)),
                "theorem2_allows_full_use": multiplicity <= mu_limit + 1e-12,
                "columns": columns,
            }
        )
    return rows
