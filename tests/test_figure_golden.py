"""Golden digests of every measured paper figure on a tiny grid.

Each measured series of Sec. VI -- Fig. 3 on both setups, Fig. 4,
Fig. 5, Fig. 6 and Fig. 7 -- runs on a small grid through its public
``figN_spec``/``figN_point`` pair and :class:`~repro.sweep.SweepRunner`.
The rows are pinned by the SHA-256 of their sorted-key JSON, with floats
rounded to 9 decimals so a last-ulp difference in the LP solver cannot
break the pin.  A refactor of the figure drivers, the sweep orchestrator
or anything they run must leave every digest unchanged; a deliberate
behaviour change updates the digest in the same commit and says why.
"""

import hashlib
import json

import pytest

from repro.experiments.fig3 import fig3_point, fig3_spec
from repro.experiments.fig4 import fig4_point, fig4_spec
from repro.experiments.fig5 import fig5_point, fig5_spec
from repro.experiments.fig67 import fig6_spec, fig7_spec, fig67_point
from repro.sweep import SweepRunner, values

WINDOW = dict(duration=2.0, warmup=1.0)
GRID = dict(kappas=(1.0, 3.0), mu_step=2.0, **WINDOW)

CASES = [
    (
        "fig3_identical",
        fig3_spec(setup="identical", **GRID),
        fig3_point,
        "beadb3a77e54df4aa60db1d884fb985807fa725dd1948d5181ee4ed4849c7507",
    ),
    (
        "fig3_diverse",
        fig3_spec(setup="diverse", **GRID),
        fig3_point,
        "a0f62e8e8545a67ad19c114a0ffe0060a2a7f30c205436ce0889f10004565c37",
    ),
    (
        "fig4",
        fig4_spec(**GRID),
        fig4_point,
        "8aff24f2de7fd4b052b9b7d79e06df537987edeb696c56f3d9c7bfabc17d2e5a",
    ),
    (
        "fig5",
        fig5_spec(**GRID),
        fig5_point,
        "799a483c0544a3feeecb44872df951022daa1c91d004fc22d3342935ef64cbbc",
    ),
    (
        "fig6",
        fig6_spec(sweep_mbps=(100.0, 800.0), **WINDOW),
        fig67_point,
        "f1a8cc79643bbbba5486c0e0fc51d75b4f6808259a52534b30393cf014faa151",
    ),
    (
        "fig7",
        fig7_spec(sweep_mbps=(100.0, 400.0), kappas=(1.0, 3.0), **WINDOW),
        fig67_point,
        "9e7c21ea58d98f9f389439028140dcb2cd5dada616a9232a5153d4be9ad59de5",
    ),
]


def _rounded(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def rows_digest(rows) -> str:
    """SHA-256 of the rows as sorted-key JSON, floats rounded to 9 places."""
    return hashlib.sha256(json.dumps(_rounded(rows), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "spec, point, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_figure_rows_match_golden(spec, point, expected):
    rows = values(SweepRunner().run(spec, point))
    assert rows
    assert rows_digest(rows) == expected
