"""Sweep orchestration: serial vs. process-pool wall time, equal results.

Runs the same quick Figure 3 sweep through :class:`repro.sweep.SweepRunner`
at ``jobs=1`` and ``jobs=N`` and

* **asserts the result rows are identical** across job counts (per-point
  seeds derive from point identity, so parallelism may never change a
  number), and
* records the wall-time speedup -- the whole reason the subsystem exists.

Run under pytest (``pytest benchmarks/bench_sweep_parallel.py -s``) or
directly for the JSON comparison::

    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py          # full
    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py --quick  # CI

The full run also writes the comparison to the tracked
``results/bench_sweep_parallel.json``; ``--quick`` only prints it, so a
smoke run leaves the tree as it found it.
"""

import argparse
import json
import os
import time

from repro.experiments.fig3 import fig3_point, fig3_spec
from repro.sweep import SweepRunner, values

#: Job counts compared against the serial reference.
PARALLEL_JOBS = (2, 4)


def _spec(quick: bool):
    """The benchmark sweep: quick mode is sized for a CI smoke run."""
    if quick:
        return fig3_spec(
            setup="identical", kappas=(1.0, 2.0), mu_step=1.0, duration=4.0, warmup=1.0
        )
    return fig3_spec(
        setup="diverse", kappas=(1.0, 2.0, 3.0), mu_step=0.25, duration=10.0, warmup=2.0
    )


def run_comparison(quick: bool = False) -> dict:
    """Time the sweep at each job count; assert rows equal across all."""
    spec = _spec(quick)
    comparison = {"points": len(spec), "modes": {}}
    reference = None
    for jobs in (1,) + PARALLEL_JOBS:
        runner = SweepRunner(jobs=jobs)
        started = time.perf_counter()
        rows = values(runner.run(spec, fig3_point))
        elapsed = time.perf_counter() - started
        if reference is None:
            reference = rows
            serial_time = elapsed
        else:
            assert rows == reference, (
                f"jobs={jobs} produced different rows than jobs=1 -- "
                "per-point determinism is broken"
            )
        comparison["modes"][f"jobs={jobs}"] = {
            "wall_s": round(elapsed, 3),
            "speedup": round(serial_time / elapsed, 2),
        }
    comparison["equal_across_jobs"] = True
    return comparison


def test_parallel_matches_serial(benchmark):
    """pytest-benchmark entry point (quick sweep, jobs=2 vs jobs=1)."""
    spec = _spec(quick=True)
    serial = values(SweepRunner(jobs=1).run(spec, fig3_point))
    parallel = benchmark.pedantic(
        lambda: values(SweepRunner(jobs=2).run(spec, fig3_point)),
        rounds=1,
        iterations=1,
    )
    assert parallel == serial


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small grid for the CI smoke step"
    )
    args = parser.parse_args()
    comparison = run_comparison(quick=args.quick)
    print(json.dumps(comparison, indent=2))
    if args.quick:
        return
    out_dir = os.path.join(os.path.dirname(__file__), "..", "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "bench_sweep_parallel.json")
    with open(out_path, "w") as handle:
        json.dump(comparison, handle, indent=2)
        handle.write("\n")
    print(f"written to {os.path.normpath(out_path)}")


if __name__ == "__main__":
    main()
