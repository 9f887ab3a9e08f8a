"""Microbenchmark: scalar reference oracle vs. the vectorized batch pipeline.

Times share splitting and reconstruction on both paths for every scheme
and emits the committed throughput trend (see ``BENCH_micro.json`` at the
repo root and ``tests/test_bench_schema.py``)::

    PYTHONPATH=src python benchmarks/bench_micro.py --json BENCH_micro.json
    PYTHONPATH=src python benchmarks/bench_micro.py --quick --check BENCH_micro.json

``--check`` re-times the quick configuration and fails (exit 1) if the
batch-over-scalar split speedup has regressed more than 20% relative to
the committed baseline.  The gate compares *speedups*, not absolute MB/s,
so it is meaningful across machines of different strength.
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.sharing.ramp import RampScheme
from repro.sharing.reference import (
    scalar_ramp_reconstruct,
    scalar_ramp_split,
    scalar_shamir_reconstruct,
    scalar_shamir_split,
    scalar_xor_reconstruct,
    scalar_xor_split,
)
from repro.sharing.shamir import ShamirScheme
from repro.sharing.xor import XorScheme

SYMBOL = bytes(range(256)) * 5  # 1280 bytes, ~one datagram payload

#: Regression tolerance for the --check gate: the measured batch/scalar
#: speedup may not drop below this fraction of the committed speedup.
CHECK_TOLERANCE = 0.8


#: Minimum wall time per timing sample; fast kernels (a few us per call)
#: are looped until a sample is at least this long so the recorded
#: speedups are stable enough for the 20% regression gate.
MIN_SAMPLE_SECONDS = 0.02


def _throughput_mbps(fn, payload_bytes: int, repeats: int) -> float:
    """Best-of-``repeats`` throughput of ``fn`` in MB/s over ``payload_bytes``."""
    started = time.perf_counter()
    fn()  # warmup (table caches, allocator) doubling as calibration probe
    probe = time.perf_counter() - started
    iterations = max(1, int(MIN_SAMPLE_SECONDS / probe) if probe > 0 else 1)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - started) / iterations)
    return payload_bytes / best / 1e6


def _bench_pair(name, scalar_split, batch_split, scalar_rec, batch_rec, repeats):
    """Time one scheme's split/reconstruct on both paths."""
    entry = {}
    for op, scalar_fn, batch_fn in (
        ("split", scalar_split, batch_split),
        ("reconstruct", scalar_rec, batch_rec),
    ):
        scalar = _throughput_mbps(scalar_fn, len(SYMBOL), repeats)
        batch = _throughput_mbps(batch_fn, len(SYMBOL), repeats)
        entry[op] = {
            "scalar_mbps": round(scalar, 3),
            "batch_mbps": round(batch, 3),
            "speedup": round(batch / scalar, 2),
        }
    return name, entry


def run_micro(repeats: int = 5) -> dict:
    """Measure scalar-vs-batch split/reconstruct MB/s for every scheme."""
    shamir = ShamirScheme()
    ramp = RampScheme(blocks=2)
    xor = XorScheme()
    shamir_shares = shamir.split(SYMBOL, 3, 5, np.random.default_rng(0))[:3]
    ramp_shares = ramp.split(SYMBOL, 3, 5, np.random.default_rng(0))[:3]
    xor_shares = xor.split(SYMBOL, 5, 5, np.random.default_rng(0))

    schemes = dict(
        [
            _bench_pair(
                "shamir_3of5",
                lambda: scalar_shamir_split(SYMBOL, 3, 5, np.random.default_rng(0)),
                lambda: shamir.split(SYMBOL, 3, 5, np.random.default_rng(0)),
                lambda: scalar_shamir_reconstruct(shamir_shares),
                lambda: shamir.reconstruct(shamir_shares),
                repeats,
            ),
            _bench_pair(
                "ramp_L2_3of5",
                lambda: scalar_ramp_split(SYMBOL, 3, 5, np.random.default_rng(0), blocks=2),
                lambda: ramp.split(SYMBOL, 3, 5, np.random.default_rng(0)),
                lambda: scalar_ramp_reconstruct(ramp_shares, blocks=2),
                lambda: ramp.reconstruct(ramp_shares),
                repeats,
            ),
            _bench_pair(
                "xor_5of5",
                lambda: scalar_xor_split(SYMBOL, 5, 5, np.random.default_rng(0)),
                lambda: xor.split(SYMBOL, 5, 5, np.random.default_rng(0)),
                lambda: scalar_xor_reconstruct(xor_shares),
                lambda: xor.reconstruct(xor_shares),
                repeats,
            ),
        ]
    )
    return {
        "schema": "bench-micro/1",
        "payload_bytes": len(SYMBOL),
        "repeats": repeats,
        "schemes": schemes,
    }


def check_against_baseline(results: dict, baseline: dict) -> "list[str]":
    """Speedup-ratio regression gate; returns failure messages (empty = pass)."""
    failures = []
    for scheme, ops in baseline["schemes"].items():
        for op, committed in ops.items():
            current = results["schemes"][scheme][op]["speedup"]
            floor = committed["speedup"] * CHECK_TOLERANCE
            if current < floor:
                failures.append(
                    f"{scheme}.{op}: batch/scalar speedup {current:.1f}x is below "
                    f"{CHECK_TOLERANCE:.0%} of the committed {committed['speedup']:.1f}x"
                )
    shamir_split = results["schemes"]["shamir_3of5"]["split"]["speedup"]
    if shamir_split < 10.0:
        failures.append(
            f"shamir_3of5.split: batch path is only {shamir_split:.1f}x the scalar "
            "oracle; the vectorized pipeline promises >= 10x on the SYMBOL payload"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", help="write results as JSON to PATH")
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed BENCH_micro.json; exit 1 on regression",
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer repeats (CI smoke settings)"
    )
    args = parser.parse_args()

    results = run_micro(repeats=3 if args.quick else 7)
    for scheme, ops in results["schemes"].items():
        for op, row in ops.items():
            print(
                f"{scheme:>14s} {op:<11s} scalar {row['scalar_mbps']:>10.3f} MB/s   "
                f"batch {row['batch_mbps']:>10.3f} MB/s   ({row['speedup']:.1f}x)"
            )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_against_baseline(results, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            sys.exit(1)
        print(f"regression gate ok (tolerance {CHECK_TOLERANCE:.0%} of committed speedup)")


if __name__ == "__main__":
    main()
