"""Run every figure reproduction and print the paper-matching series.

Usage::

    python -m repro.experiments.runner            # full sweeps (slow)
    python -m repro.experiments.runner --quick    # coarse sweeps (~20 s)
    python -m repro.experiments.runner --quick --jobs 8 --resume
    python -m repro.experiments.runner --quick --csv results

The output is the text-table equivalent of the paper's Figures 2-7; the
shape comparisons recorded in EXPERIMENTS.md come from this runner.
``--csv DIR`` also writes each series' rows to one CSV file in DIR, in the
same pass; the committed ``results/fig*.csv`` are the ``--quick`` export.

``--jobs N`` fans each figure's sweep out over N worker processes (the
rows are identical to a serial run -- see docs/SWEEPS.md), and
``--resume`` caches finished points under ``results/cache/`` (or
``--cache-dir``, which caches on its own) so an interrupted run picks up
where it left off.  A series that raises is reported (with its
traceback) and the remaining series still run; the exit code is then
nonzero instead of dying mid-run with partial output.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.experiments import SWEEPS, run_fig2, run_figure
from repro.experiments.fig2 import FIG2_RATES
from repro.experiments.fig67 import saturation_point
from repro.experiments.reporting import rows_to_table, summarize_ratio, write_rows
from repro.sweep import DEFAULT_CACHE_DIR, ResultCache, open_cache


class Series(NamedTuple):
    """One printed series: a paper figure, or one panel of it.

    ``figure`` is the ``--only`` selector and, except for Figure 2's
    packing construction, the registered sweep that computes the rows;
    ``overrides`` are spec-builder arguments besides ``quick``.
    """

    figure: str
    title: str
    overrides: Dict[str, object]
    columns: Sequence[str]
    precision: int
    csv: str
    summary: Optional[Callable[[List[dict]], str]]


def _ratio(rows: List[dict]) -> str:
    return summarize_ratio(rows, "achieved_rate", "optimal_rate")


def _level_off(rows: List[dict]) -> str:
    return f"level-off (achieved < 95% optimal) at ~{saturation_point(rows)} Mbps/channel"


def _departures(rows: List[dict]) -> str:
    return "\n".join(
        f"κ={kappa}: departs optimal at ~"
        f"{saturation_point([row for row in rows if row['kappa'] == kappa])} Mbps/channel"
        for kappa in sorted({row["kappa"] for row in rows})
    )


RATE = ("kappa", "mu", "optimal_mbps", "achieved_mbps", "ratio")

#: Every printed series, in print order.  Sweep titles open with a blank
#: line; Figure 2 opens the report.
SERIES = [
    Series("fig2", f"Figure 2: greedy share packing, r = {FIG2_RATES}", {},
           ("mu", "symbols_packed", "optimal_floor", "share_usage", "fully_utilized",
            "theorem2_allows_full_use"), 3, "fig2_packing.csv", None),
    Series("fig3", "\nFigure 3 (identical setup): optimal vs achieved rate over (κ, µ)",
           {"setup": "identical"}, RATE, 3, "fig3_rate_identical.csv", _ratio),
    Series("fig3", "\nFigure 3 (diverse setup): optimal vs achieved rate over (κ, µ)",
           {"setup": "diverse"}, RATE, 3, "fig3_rate_diverse.csv", _ratio),
    Series("fig4", "\nFigure 4: delay at maximum rate (Delayed setup)", {},
           ("kappa", "mu", "optimal_delay_ms", "actual_delay_ms"), 3, "fig4_delay.csv", None),
    Series("fig5", "\nFigure 5: loss at maximum rate (Lossy setup)", {},
           ("kappa", "mu", "optimal_loss_pct", "actual_loss_pct"), 3, "fig5_loss.csv", None),
    Series("fig6", "\nFigure 6: Identical setup, increasing channel rate, κ = µ = 1", {},
           ("channel_mbps", "optimal_mbps", "achieved_mbps"), 1, "fig6_highbw.csv", _level_off),
    Series("fig7", "\nFigure 7: Identical setup, increasing channel rate, µ = 5", {},
           ("kappa", "channel_mbps", "optimal_mbps", "achieved_mbps"), 1, "fig7_highbw.csv",
           _departures),
]


def report(
    series: Series,
    quick: bool,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    csv_dir: Optional[str] = None,
) -> None:
    """Compute one series, print it, and write its CSV into ``csv_dir``."""
    if series.figure in SWEEPS:
        rows = run_figure(series.figure, jobs=jobs, cache=cache, quick=quick, **series.overrides)
    else:
        rows = run_fig2()
    print(series.title)
    print(rows_to_table(rows, series.columns, precision=series.precision))
    if series.summary is not None:
        print(series.summary(rows))
    if csv_dir is not None:
        write_rows(os.path.join(csv_dir, series.csv), rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="coarse sweeps for a fast end-to-end pass"
    )
    parser.add_argument(
        "--only",
        choices=sorted({series.figure for series in SERIES}),
        help="run a single figure reproduction",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per sweep (results identical to --jobs 1)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=f"cache finished sweep points under {DEFAULT_CACHE_DIR}/ and "
        "reuse them on re-runs",
    )
    parser.add_argument(
        "--cache-dir",
        help=f"cache location (default {DEFAULT_CACHE_DIR}; implies caching when given)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each series as one CSV file in DIR",
    )
    args = parser.parse_args(argv)

    cache = open_cache(args.resume, args.cache_dir)
    # Wall-time reads below are progress reporting only: they are printed
    # for the operator and never reach figure rows, caches or traces.
    started = time.time()  # lint: disable=wall-clock
    failures = []
    for series in SERIES:
        if args.only is not None and args.only != series.figure:
            continue
        name = os.path.splitext(series.csv)[0]
        series_started = time.time()  # lint: disable=wall-clock
        try:
            report(series, args.quick, args.jobs, cache, args.csv)
        except Exception:
            failures.append(name)
            print(f"\n{name} FAILED:\n{traceback.format_exc()}", file=sys.stderr)
        print(f"[{name} wall time: {time.time() - series_started:.1f}s]")  # lint: disable=wall-clock
    print(f"\ntotal wall time: {time.time() - started:.1f}s")  # lint: disable=wall-clock
    if failures:
        print(f"FAILED figures: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
