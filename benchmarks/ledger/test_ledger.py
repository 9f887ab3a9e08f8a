"""Self-checks of the ledger benchmark: ``pytest benchmarks/ledger``.

The module fixture measures every workload at quick size twice (seed 1,
one repeat, traced), which takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import ledger

ledger.bootstrap()

import ledger_calibrate  # noqa: E402
import ledger_trace  # noqa: E402
import ledger_workloads  # noqa: E402

BENCHMARK = json.loads((ledger.ROOT / "BENCHMARK.json").read_text())
LEDGER_DIR = ledger.ROOT / "benchmarks" / "ledger"

#: Attributes the ledger patches, besides the tracer's own probes.
WORKLOAD_PATCHES = (
    "repro.protocol.remicss.RemicssNode.on_deliver",
    "repro.protocol.remicss.RemicssNode.send",
    "repro.netsim.engine.Engine.__init__",
    "repro.netsim.engine.Engine.run",
    "repro.netsim.engine.Engine.run_until",
)


@pytest.fixture(scope="module")
def quick_runs():
    """Two traced quick measurements of every workload on seed 1."""
    return [
        {
            name: ledger.measure_workload(name, 1, "quick", repeats=1, trace=True)
            for name in ledger.WORKLOAD_NAMES
        }
        for _ in range(2)
    ]


def _patched_attributes():
    paths = (
        [path for path, _layer in ledger_trace.SPAN_PROBES]
        + list(ledger_trace.CALLBACK_PROBES)
        + [path for path, _kind in ledger_trace.STATS_PROBES]
        + list(WORKLOAD_PATCHES)
    )
    snapshot = {}
    for path in paths:
        owner, name = ledger_trace.resolve(path)
        snapshot[path] = vars(owner).get(name)
    return snapshot


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(ledger.WORKLOAD_NAMES)
    assert BENCHMARK["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in ledger.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in ledger_trace.PER_LAYER_METRICS
    ]
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]


def test_quick_run_emits_every_metric_with_its_unit(quick_runs):
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for block in quick_runs[0].values():
        assert {k: v["unit"] for k, v in block["metrics"].items()} == end_to_end
        assert {k: v["unit"] for k, v in block["layers"].items()} == per_layer
        assert all(v["median"] > 0 for v in block["metrics"].values())


def test_two_quick_runs_agree_on_digests_and_counts(quick_runs):
    first, second = quick_runs
    for name in ledger.WORKLOAD_NAMES:
        a, b = first[name], second[name]
        assert a["digest"] == b["digest"]
        assert (a["delivered"], a["transmitted"]) == (b["delivered"], b["transmitted"])
        counts = {k for k, v in a["layers"].items() if v["unit"] in ("count", "B")}
        assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}


def test_tracing_does_not_perturb_behaviour(quick_runs):
    for name, block in quick_runs[0].items():
        assert block["trace"]["digest_matches"], name
        assert block["trace"]["digest"] == block["digest"]
        assert block["trace"]["unbound_probes"] == []
        assert block["layers"]["trace.coverage"]["value"] >= 0.9, name


def test_every_layer_a_workload_exercises_has_self_time(quick_runs):
    exercised = {
        "testbed_real": ("sharing.shamir", "gf.batch", "protocol.wire", "protocol.receiver"),
        "fleet_synth": ("netsim.engine", "netsim.link", "netsim.readiness", "fleet.mux"),
        "fleet_auth": ("fleet.mux", "gf.batch", "protocol.auth"),
        "attack_auth": ("protocol.auth", "sharing.robust", "adversary.active"),
    }
    for name, layers in exercised.items():
        block = quick_runs[0][name]
        for layer in layers:
            assert block["layers"][f"{layer}.self_frac"]["value"] > 0, (name, layer)
    synth = quick_runs[0]["fleet_synth"]["layers"]
    assert synth["gf.batch.calls"]["value"] == synth["protocol.auth.calls"]["value"] == 0


def test_error_rate_is_zero_on_seeds_1_and_2(quick_runs):
    for block in quick_runs[0].values():
        assert block["errors"] == 0 and block["error_rate"] == 0.0
    for name in ledger.WORKLOAD_NAMES:
        block = ledger.measure_workload(name, 2, "quick", repeats=1, memory=False)
        assert block["errors"] == 0, name


def test_every_patched_attribute_is_restored():
    before = _patched_attributes()
    tracer = ledger_trace.LayerTracer()
    tracer.run(ledger_workloads.fleet_auth, 1, {"flows": 32})
    assert _patched_attributes() == before
    ledger.run_once("testbed_real", 1, {"duration": 2.0}, check=True)
    assert _patched_attributes() == before

    def broken():
        from repro.netsim.engine import Engine

        Engine().run()
        raise RuntimeError("workload failed mid-run")

    with pytest.raises(RuntimeError):
        ledger_trace.LayerTracer().run(broken)
    assert _patched_attributes() == before


def test_missing_probe_target_degrades_coverage_without_failing():
    missing = "repro.netsim.link.Link.no_such_method"
    probes = ledger_trace.SPAN_PROBES + ((missing, "netsim.link"),)
    tracer = ledger_trace.LayerTracer(span_probes=probes)
    outcome = tracer.run(ledger_workloads.fleet_synth, 1, {"flows": 64})
    values = tracer.metrics(outcome.delivered, untraced_wall=1.0)
    assert tracer.unbound == [missing]
    assert values["trace.unbound_probes"] == 1
    # Link events are no longer claimed by netsim.link: they are unattributed.
    assert values["netsim.link.self_frac"] < values["unattributed.self_frac"]
    assert values["trace.coverage"] < 1.0
    assert ledger_trace.resolve(missing) is None


def test_calibration_kernel_is_fixed_and_scales_the_metrics():
    assert ledger_calibrate.kernel() == ledger_calibrate.CHECKSUM
    assert 0 < ledger_calibrate.calibrate() < 100
    run = ledger.run_once("fleet_synth", 1, {"flows": 32})
    plain = run.rates()
    run.slowdown = 2.0
    slowed = run.rates()
    assert slowed["symbols_per_s"] == pytest.approx(2 * plain["symbols_per_s"])
    assert slowed["setup_s"] == pytest.approx(plain["setup_s"] / 2)
    assert slowed["delivery_ratio"] == plain["delivery_ratio"]


def test_workload_command_prints_one_result_line():
    command = BENCHMARK["command"] + ["--workload", "fleet_auth", "--seed", "3"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            [sys.executable] + command[1:] + ["--seconds", "0.5", "--trace", trace],
            cwd=ledger.ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[section]
        }


def test_workload_command_fails_without_the_sources(tmp_path):
    shutil.copy(ledger.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER_DIR, tmp_path / "benchmarks" / "ledger")
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/ledger.py", "--workload", "fleet_auth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def _metric(median, q1, q3, better="higher", bound=0.1, samples=None):
    return {
        "median": median, "q1": q1, "q3": q3, "better": better, "bound": bound,
        "unit": "1/s", "samples": samples or [q1, median, q3],
    }


def test_judge_verdicts():
    base = _metric(100.0, 99.0, 101.0)
    assert ledger.judge(base, _metric(80.0, 79.0, 81.0)) == "worse"
    assert ledger.judge(base, _metric(105.0, 104.5, 105.5, samples=[104, 105, 106])) == "better"
    assert ledger.judge(base, _metric(100.5, 99.5, 101.5)) == "same"
    assert ledger.judge(base, _metric(100.0, 80.0, 120.0)) == "unresolved"
    lower = _metric(1.0, 0.99, 1.01, better="lower")
    assert ledger.judge(lower, _metric(1.5, 1.49, 1.51, better="lower")) == "worse"
    # A single sample has no IQR: only a move beyond the bound counts.
    single = _metric(2.0, 2.0, 2.0, better="lower", samples=[2.0])
    assert ledger.judge(single, _metric(1.999, 1.999, 1.999, better="lower", samples=[1.999])) == "same"
    assert ledger.judge(single, _metric(1.5, 1.5, 1.5, better="lower", samples=[1.5])) == "better"
    # Repeated samples with no spread are deterministic: any drop regresses.
    ratio = _metric(0.95, 0.95, 0.95, bound=0.03, samples=[0.95] * 3)
    assert ledger.judge(ratio, _metric(0.949, 0.949, 0.949, bound=0.03, samples=[0.949] * 3)) == "worse"
    assert ledger.judge(ratio, dict(ratio)) == "same"


def test_compare_reports_each_workload_and_digest(capsys):
    def envelope(median, digest):
        return {
            "workloads": {
                name: {"digest": digest, "metrics": {"symbols_per_s": _metric(median, median, median)}}
                for name in ledger.WORKLOAD_NAMES
            }
        }

    assert ledger.compare(envelope(100.0, "a"), envelope(100.0, "a")) == 0
    assert capsys.readouterr().out.count("same") == 2 * len(ledger.WORKLOAD_NAMES)
    assert ledger.compare(envelope(100.0, "a"), envelope(50.0, "b")) == 1
    out = capsys.readouterr().out
    assert out.count("worse") == out.count("DIFFERENT") == len(ledger.WORKLOAD_NAMES)
