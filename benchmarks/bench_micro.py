"""Microbenchmarks: the building blocks behind the figure reproductions.

These back the paper's feasibility claim ("secret sharing protocols can be
efficiently implemented"): share splitting/reconstruction throughput --
scalar reference oracle vs. the vectorized batch pipeline -- LP solve time
for the schedule programs, subset-property evaluation, and raw simulator
event throughput.

Run under pytest for the pytest-benchmark timings, or directly to emit the
committed throughput trend (see ``BENCH_micro.json`` at the repo root and
``tests/test_bench_schema.py``)::

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
import pytest

from repro.core.program import Objective, build_program
from repro.core.properties import subset_delay, subset_loss, subset_risk
from repro.lp import solve
from repro.netsim.engine import Engine
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
from repro.workloads.setups import diverse_setup, lossy_setup

SYMBOL = bytes(range(256)) * 5  # 1280 bytes, ~one datagram payload

#: Regression tolerance for the --check gate: the measured batch/scalar
#: speedup may not drop below this fraction of the committed speedup.
CHECK_TOLERANCE = 0.8


@pytest.fixture
def channels():
    # Function-scoped on purpose: lossy_setup() returns stateful Link
    # objects, and a module-scoped instance would let one benchmark class
    # leak mutated link state into the next.
    return lossy_setup()


class TestSharingThroughput:
    def test_shamir_split_3_of_5(self, benchmark):
        scheme = ShamirScheme()
        rng = np.random.default_rng(0)
        shares = benchmark(scheme.split, SYMBOL, 3, 5, rng)
        assert len(shares) == 5

    def test_shamir_reconstruct_3_of_5(self, benchmark):
        scheme = ShamirScheme()
        shares = scheme.split(SYMBOL, 3, 5, np.random.default_rng(0))[:3]
        result = benchmark(scheme.reconstruct, shares)
        assert result == SYMBOL

    def test_shamir_split_high_threshold(self, benchmark):
        scheme = ShamirScheme()
        rng = np.random.default_rng(0)
        shares = benchmark(scheme.split, SYMBOL, 5, 5, rng)
        assert len(shares) == 5

    def test_shamir_split_many_batch(self, benchmark):
        scheme = ShamirScheme()
        rng = np.random.default_rng(0)
        batch = [SYMBOL] * 16
        groups = benchmark(scheme.split_many, batch, 3, 5, rng)
        assert len(groups) == 16

    def test_xor_split_5_of_5(self, benchmark):
        scheme = XorScheme()
        rng = np.random.default_rng(0)
        shares = benchmark(scheme.split, SYMBOL, 5, 5, rng)
        assert len(shares) == 5


class TestScalarOracleThroughput:
    """The per-byte reference path, for the batch-vs-scalar trend."""

    def test_scalar_shamir_split_3_of_5(self, benchmark):
        rng = np.random.default_rng(0)
        shares = benchmark(scalar_shamir_split, SYMBOL, 3, 5, rng)
        assert len(shares) == 5

    def test_scalar_shamir_reconstruct_3_of_5(self, benchmark):
        shares = scalar_shamir_split(SYMBOL, 3, 5, np.random.default_rng(0))[:3]
        result = benchmark(scalar_shamir_reconstruct, shares)
        assert result == SYMBOL


class TestModelEvaluation:
    def test_subset_risk_full_set(self, benchmark, channels):
        value = benchmark(subset_risk, channels, 3, range(5))
        assert 0.0 <= value <= 1.0

    def test_subset_loss_full_set(self, benchmark, channels):
        value = benchmark(subset_loss, channels, 3, range(5))
        assert 0.0 <= value <= 1.0

    def test_subset_delay_full_set(self, benchmark, channels):
        value = benchmark(subset_delay, channels, 3, range(5))
        assert value >= 0.0


class TestLpSolve:
    def _program(self, channels, at_max_rate):
        return build_program(
            channels, Objective.LOSS, kappa=2.0, mu=3.4, at_max_rate=at_max_rate
        )[0]

    def test_free_program_scipy(self, benchmark, channels):
        program = self._program(channels, at_max_rate=False)
        solution = benchmark(solve, program)
        assert solution.objective >= 0.0

    def test_maxrate_program_scipy(self, benchmark, channels):
        program = self._program(channels, at_max_rate=True)
        solution = benchmark(solve, program)
        assert solution.objective >= 0.0


class TestSimulatorThroughput:
    def test_engine_event_throughput(self, benchmark):
        def run_events():
            engine = Engine()

            def chain(remaining):
                if remaining:
                    engine.schedule(0.001, chain, remaining - 1)

            chain_count = 20
            for _ in range(chain_count):
                engine.schedule(0.0, chain, 500)
            engine.run()
            return engine.events_processed

        processed = benchmark(run_events)
        assert processed == 20 * 501

    def test_protocol_symbol_throughput(self, benchmark):
        """End-to-end simulated symbols per wall-second (synthetic shares)."""
        from repro.protocol.config import ProtocolConfig
        from repro.workloads.iperf import run_iperf

        channels = diverse_setup()
        config = ProtocolConfig(kappa=2.0, mu=3.0, share_synthetic=True)

        result = benchmark.pedantic(
            run_iperf,
            args=(channels, config),
            kwargs={"offered_rate": 100.0, "duration": 10.0, "warmup": 1.0},
            rounds=1,
            iterations=1,
        )
        assert result.symbols_delivered > 500


# --------------------------------------------------------------------------
# Committed throughput trend (BENCH_micro.json) and the regression gate.


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
