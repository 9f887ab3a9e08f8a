"""Figure-by-figure reproduction drivers (Sec. VI of the paper).

One module per evaluation figure:

* :mod:`repro.experiments.fig2` -- the share-packing construction with
  rates (3, 4, 8);
* :mod:`repro.experiments.fig3` -- optimal vs achieved rate over (κ, µ)
  on the Identical and Diverse setups;
* :mod:`repro.experiments.fig4` -- optimal vs actual delay at maximum
  rate on the Delayed setup;
* :mod:`repro.experiments.fig5` -- loss at maximum rate on the Lossy
  setup;
* :mod:`repro.experiments.fig67` -- rate under increasing channel
  capacity with end-system (CPU) bottlenecks, for µ = 1 (Fig. 6) and
  µ = 5 with varying κ (Fig. 7);
* :mod:`repro.experiments.attack` -- the same protocol against the
  canonical active-adversary scenarios.

Every measured grid is declared as a :class:`~repro.sweep.SweepSpec` (one
``figN_spec`` builder plus a picklable point function per module) and
registered once in :data:`SWEEPS`.  :func:`run_figure` runs a registered
sweep through :class:`~repro.sweep.SweepRunner`, so every sweep accepts
``jobs`` (process-pool fan-out with rows identical to serial) and
``cache`` (content-addressed resume) -- see ``docs/SWEEPS.md``.  The same
registry backs ``repro sweep``, ``repro attack`` and
``python -m repro.experiments.runner``, which prints the paper-matching
series and, with ``--csv DIR``, writes them as CSV.
"""

from typing import Any, Dict, List, Optional

from repro.experiments.attack import attack_point, attack_spec
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import fig3_point, fig3_spec
from repro.experiments.fig4 import fig4_point, fig4_spec
from repro.experiments.fig5 import fig5_point, fig5_spec
from repro.experiments.fig67 import fig6_spec, fig7_spec, fig67_point
from repro.sweep import ResultCache, SweepRunner, values

#: Every measured sweep: name -> (spec builder, point function).
SWEEPS = {
    "fig3": (fig3_spec, fig3_point),
    "fig4": (fig4_spec, fig4_point),
    "fig5": (fig5_spec, fig5_point),
    "fig6": (fig6_spec, fig67_point),
    "fig7": (fig7_spec, fig67_point),
    "attack": (attack_spec, attack_point),
}


def run_figure(
    name: str,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    **spec_kwargs: Any,
) -> List[Dict[str, Any]]:
    """Run registered sweep ``name`` and return its rows in grid order.

    ``spec_kwargs`` go to the sweep's spec builder, whose defaults are the
    paper's grid.  ``jobs`` > 1 computes the same rows on worker
    processes; ``cache`` serves finished points.  Raises
    :class:`~repro.sweep.SweepError` if any point fails.
    """
    build, point = SWEEPS[name]
    return values(SweepRunner(jobs=jobs, cache=cache).run(build(**spec_kwargs), point))


__all__ = ["SWEEPS", "run_fig2", "run_figure"]
