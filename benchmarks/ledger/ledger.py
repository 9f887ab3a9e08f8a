"""The layered performance-and-behaviour ledger.

Measures the four canonical workloads (``ledger_workloads.py``) end to
end, and with ``--trace`` attributes each one's time to layers from the
outside (``ledger_trace.py``).  Single process, ``shards=1``, no threads.
Catalogue, workload rationale and the layer-to-metric table are in this
directory's README.md.

Usage (from the repository root; the sources are found under ``src/``)::

    python benchmarks/ledger/ledger.py [--quick] [--seed S] [--json OUT] [--trace]
    python benchmarks/ledger/ledger.py --compare BASE.json HEAD.json
    python benchmarks/ledger/ledger.py --workload W [--seed S] [--seconds T] [--trace 0|1]

The first form runs every workload: a quick-size warm-up with payload
checks, then 5 timed repeats (3 with ``--quick``), a ``tracemalloc``
memory pass and, with ``--trace``, one traced run; ``--json`` writes the
envelope.  The second prints one verdict row per workload and metric.
The third repeats one workload at quick size for ``T`` seconds and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end medians, or the
per-layer metrics with ``--trace 1``); it is the command
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from ledger_calibrate import calibrate
from ledger_trace import PER_LAYER_METRICS, LayerTracer, Patcher, SetupClock

ROOT = Path(__file__).resolve().parents[2]

SCHEMA = "perf-ledger/1"

WORKLOAD_NAMES = ("testbed_real", "fleet_synth", "fleet_auth", "attack_auth")

#: ``(name, unit, better, bound)``; ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change regresses it.
#: Rates divide by run time: CPU time minus ``setup_s``, both in
#: reference seconds (``ledger_calibrate``).
END_TO_END = (
    ("symbols_per_s", "1/s", "higher", 0.25),
    ("goodput_mb_per_s", "MB/s", "higher", 0.25),
    ("flows_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_mib", "MiB", "lower", 0.10),
    ("delivery_ratio", "ratio", "higher", 0.03),
)

REPEATS = 5
QUICK_REPEATS = 3
#: Repeats a ``--workload`` run makes however short ``--seconds`` is.
MIN_REPEATS = 3


def bootstrap() -> None:
    """Make the checkout's ``src/repro`` importable, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: no repro sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"ledger: repro was imported from {repro.__file__}, not {src}")


@dataclass
class Run:
    """One timed workload run.

    ``cpu`` and ``setup`` are CPU seconds of this process: on an idle
    machine they equal wall seconds, and they leave out the time other
    processes and the hypervisor take the CPU away.  ``slowdown`` is the
    host's slowdown around the run (``ledger_calibrate``); the metrics
    divide by it, so they are in reference seconds.
    """

    outcome: Any
    wall: float
    cpu: float
    setup: float
    slowdown: float = 1.0

    def rates(self) -> Dict[str, float]:
        outcome = self.outcome
        run_s = (self.cpu - self.setup) / self.slowdown
        return {
            "symbols_per_s": outcome.delivered / run_s,
            "goodput_mb_per_s": outcome.delivered * outcome.symbol_size * 1e-6 / run_s,
            "flows_per_s": outcome.flows / run_s,
            "setup_s": self.setup / self.slowdown,
            "delivery_ratio": outcome.delivered / outcome.transmitted,
        }


def run_once(name: str, seed: int, size: dict, check: bool = False) -> Run:
    """Run one workload untraced, timing it and its engines' set-up."""
    from ledger_workloads import WORKLOADS

    clock = SetupClock()
    patcher = Patcher()
    gc.collect()
    try:
        clock.install(patcher)
        started, cpu_started = time.perf_counter(), time.process_time()
        outcome = WORKLOADS[name](seed, size, check)
        cpu = time.process_time() - cpu_started
        wall = time.perf_counter() - started
    finally:
        patcher.restore()
    return Run(outcome, wall, cpu, clock.total + outcome.plan_s)


def peak_mib(name: str, seed: int, size: dict) -> float:
    """``tracemalloc`` peak of one run, after collecting earlier garbage."""
    from ledger_workloads import WORKLOADS

    gc.collect()
    tracemalloc.start()
    try:
        WORKLOADS[name](seed, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def summarize(values: List[float]) -> dict:
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "samples": list(values)}


def measure_workload(
    name: str,
    seed: int,
    size_name: str = "full",
    repeats: int = REPEATS,
    seconds: float = 0.0,
    memory: bool = True,
    trace: bool = False,
) -> dict:
    """Warm up, time, measure memory and optionally trace one workload.

    Timed repeats continue until both ``repeats`` runs and ``seconds``
    of measurement are done.  The calibration kernel runs before the
    first repeat and after each one; a repeat's slowdown is the mean of
    the two around it.  Errors are wrong payloads (checked in the
    warm-up for the testbed, in every run under attack), κ-floor
    violations, and the delivered symbols of any run whose digest differs
    from the reference: the warm-up's when sizes match, else the first
    repeat's.
    """
    from ledger_workloads import SIZES, WORKLOADS

    quick = SIZES[name]["quick"]
    size = SIZES[name][size_name]
    warm = run_once(name, seed, quick, check=True)
    runs: List[Run] = []
    slowdowns = [calibrate()]
    started = time.perf_counter()
    while len(runs) < repeats or time.perf_counter() - started < seconds:
        runs.append(run_once(name, seed, size))
        slowdowns.append(calibrate())
    for run, before, after in zip(runs, slowdowns, slowdowns[1:]):
        run.slowdown = (before + after) / 2
    reference = warm.outcome.digest if size == quick else runs[0].outcome.digest

    outcomes = [warm.outcome] + [run.outcome for run in runs]
    errors = sum(outcome.errors for outcome in outcomes) + sum(
        run.outcome.delivered for run in runs if run.outcome.digest != reference
    )
    rates = [run.rates() for run in runs]
    samples = {metric: [rate[metric] for rate in rates] for metric in rates[0]}
    if memory:
        samples["peak_mib"] = [peak_mib(name, seed, size)]
    block = {
        "size": size_name,
        "params": size,
        "repeats": len(runs),
        "digest": reference,
        "delivered": runs[0].outcome.delivered,
        "transmitted": runs[0].outcome.transmitted,
        "slowdown": summarize(slowdowns),
        "metrics": {
            metric: {"unit": unit, "better": better, "bound": bound, **summarize(samples[metric])}
            for metric, unit, better, bound in END_TO_END
            if metric in samples
        },
    }

    if trace:
        tracer = LayerTracer()
        traced = tracer.run(WORKLOADS[name], seed, size)
        outcomes.append(traced)
        matches = traced.digest == reference
        if not matches:
            errors += traced.delivered
        values = tracer.metrics(traced.delivered, statistics.median(run.wall for run in runs))
        block["layers"] = {
            metric: {"value": values[metric], "unit": unit, "better": better}
            for metric, unit, better in PER_LAYER_METRICS
        }
        block["trace"] = {
            "digest": traced.digest,
            "digest_matches": matches,
            "unbound_probes": list(tracer.unbound),
            "wall_s": tracer.total,
        }

    checked = sum(outcome.delivered for outcome in outcomes)
    block["attempted"] = sum(outcome.transmitted for outcome in outcomes)
    block["errors"] = errors
    block["error_rate"] = errors / checked if checked else 0.0
    return block


def envelope(seed: int, size_name: str, repeats: int, traced: bool) -> dict:
    import numpy

    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "size": size_name,
        "repeats": repeats,
        "traced": traced,
        "workloads": {},
    }


# -- output ---------------------------------------------------------------------


def print_block(name: str, block: dict) -> None:
    params = ", ".join(f"{key}={value}" for key, value in block["params"].items())
    print(
        f"== {name} ({block['size']}: {params}; {block['repeats']} repeats) "
        f"digest {block['digest'][:16]} errors {block['errors']}"
    )
    for metric, entry in block["metrics"].items():
        print(
            f"  {metric:<18} {entry['median']:>14.6g} {entry['unit']:<6}"
            f" [{entry['q1']:.6g}, {entry['q3']:.6g}]"
        )
    layers = block.get("layers")
    if layers is None:
        return
    trace = block["trace"]
    print(
        f"  traced: coverage {layers['trace.coverage']['value']:.1%}, "
        f"overhead {layers['trace.overhead_ratio']['value']:.2f}x, "
        f"digest {'matches' if trace['digest_matches'] else 'DIFFERS'}, "
        f"unbound probes {trace['unbound_probes'] or 'none'}"
    )
    for metric, entry in layers.items():
        if metric.endswith(".self_frac"):
            layer = metric[: -len(".self_frac")]
            calls = layers[f"{layer}.calls"]["value"]
            print(f"    {layer:<20} {entry['value']:>7.1%}  calls {calls}")
    for metric, entry in layers.items():
        if not metric.endswith((".self_frac", ".calls")) and not metric.startswith("trace."):
            print(f"    {metric:<38} {entry['value']:.6g}")


def judge(base: dict, head: dict) -> str:
    """``better``, ``worse``, ``same`` or ``unresolved`` for one metric.

    A repeated metric with no spread on either side is deterministic, so
    any change counts.  Otherwise: better when every head sample beats
    every base sample; unresolved when either side's IQR exceeds the
    bound; worse when the head median is worse by more than the bound;
    better when it is better by more than the IQR (by more than the bound
    for a single-sample metric, which has no IQR of its own).
    """
    sign = 1.0 if base["better"] == "higher" else -1.0
    b, h = base["median"], head["median"]
    if b == 0 or h == 0:
        return "unresolved"
    change = sign * (h - b) / abs(b)
    spread = max((base["q3"] - base["q1"]) / abs(b), (head["q3"] - head["q1"]) / abs(h))
    repeated = min(len(base["samples"]), len(head["samples"])) >= MIN_REPEATS
    if repeated and spread == 0:
        return "same" if change == 0 else "better" if change > 0 else "worse"
    if repeated and min(sign * v for v in head["samples"]) > max(
        sign * v for v in base["samples"]
    ):
        return "better"
    if spread > base["bound"]:
        return "unresolved"
    if change < -base["bound"]:
        return "worse"
    if change > (spread if repeated else base["bound"]):
        return "better"
    return "same"


def compare(base: dict, head: dict) -> int:
    """Print the verdict table; 1 if any metric got worse, else 0."""
    worse = False
    print(
        f"{'workload':<13} {'metric':<17} {'base median':>12} {'IQR':>10}"
        f" {'head median':>12} {'IQR':>10} {'change':>8}  verdict"
    )
    for name in WORKLOAD_NAMES:
        old = base["workloads"].get(name)
        new = head["workloads"].get(name)
        if old is None or new is None:
            print(f"{name:<13} (missing from {'base' if old is None else 'head'})")
            continue
        for metric, b in old["metrics"].items():
            h = new["metrics"].get(metric)
            if h is None:
                continue
            verdict = judge(b, h)
            worse = worse or verdict == "worse"
            change = (h["median"] - b["median"]) / b["median"] if b["median"] else math.nan
            print(
                f"{name:<13} {metric:<17} {b['median']:>12.6g} {b['q3'] - b['q1']:>10.3g}"
                f" {h['median']:>12.6g} {h['q3'] - h['q1']:>10.3g} {change:>+8.1%}  {verdict}"
            )
        same = old["digest"] == new["digest"]
        print(f"{name:<13} {'digest':<17} {'same' if same else 'DIFFERENT'}")
    return 1 if worse else 0


# -- entry points -----------------------------------------------------------------


def run_ledger(seed: int, quick: bool, trace: bool, json_out: Optional[str]) -> int:
    size_name = "quick" if quick else "full"
    repeats = QUICK_REPEATS if quick else REPEATS
    result = envelope(seed, size_name, repeats, trace)
    for name in WORKLOAD_NAMES:
        block = measure_workload(name, seed, size_name, repeats=repeats, trace=trace)
        result["workloads"][name] = block
        print_block(name, block)
    if json_out:
        Path(json_out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 1 if any(block["errors"] for block in result["workloads"].values()) else 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload in the ``BENCHMARK.json`` result format."""
    if trace:
        block = measure_workload(name, seed, "quick", repeats=1, memory=False, trace=True)
        metrics = {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in block["layers"].items()
        }
    else:
        block = measure_workload(name, seed, "quick", repeats=MIN_REPEATS, seconds=seconds)
        metrics = {
            metric: {"value": entry["median"], "unit": entry["unit"]}
            for metric, entry in block["metrics"].items()
        }
    print(f"{name}: {block['repeats']} repeats, digest {block['digest'][:16]}")
    print(
        json.dumps(
            {
                "correct": block["errors"] == 0,
                "attempted": block["attempted"],
                "failed": block["errors"],
                "metrics": metrics,
            }
        )
    )
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are nonnegative")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="quick sizes, 3 repeats")
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--json", metavar="OUT", help="write the JSON envelope here")
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="add a traced run with per-layer attribution",
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="measure one workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="with --workload")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)

    if args.compare:
        base, head = (json.loads(Path(path).read_text()) for path in args.compare)
        return compare(base, head)
    bootstrap()
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_ledger(args.seed, args.quick, bool(args.trace), args.json)


if __name__ == "__main__":
    sys.exit(main())
