"""The command-line interface."""

import json

import pytest

from repro.cli import load_channels, main
from repro.protocol.config import ProtocolConfig
from repro.workloads.iperf import practical_max_rate

CHANNELS = [
    [0.3, 0.01, 0.25, 5.0],
    [0.1, 0.005, 0.025, 20.0],
    [0.25, 0.01, 1.25, 60.0],
]


@pytest.fixture
def channels_file(tmp_path):
    path = tmp_path / "channels.json"
    path.write_text(json.dumps(CHANNELS))
    return str(path)


class TestLoadChannels:
    def test_json_rows(self, channels_file):
        channels = load_channels(channels_file, None)
        assert channels.n == 3
        assert channels[1].rate == 20.0

    def test_json_objects(self, tmp_path):
        path = tmp_path / "objs.json"
        path.write_text(
            json.dumps([{"risk": 0.1, "loss": 0.0, "delay": 0.5, "rate": 10.0}])
        )
        channels = load_channels(str(path), None)
        assert channels[0].delay == 0.5

    def test_inline(self):
        channels = load_channels(None, [[0.1, 0.0, 0.5, 10.0]])
        assert channels.n == 1

    def test_both_rejected(self, channels_file):
        with pytest.raises(ValueError):
            load_channels(channels_file, [[0.1, 0.0, 0.5, 10.0]])

    def test_neither_rejected(self):
        with pytest.raises(ValueError):
            load_channels(None, None)

    @pytest.mark.parametrize(
        "document",
        [5, [[0.1, 0.0, 0.5]], [{"risk": 0.1, "loss": 0.0, "delay": 0.5}]],
        ids=["not-a-list", "short-row", "missing-key"],
    )
    @pytest.mark.parametrize(
        "command",
        [["rate"], ["optimize", "--kappa", "1", "--mu", "1"], ["plan"],
         ["simulate", "--kappa", "1", "--mu", "1"]],
        ids=["rate", "optimize", "plan", "simulate"],
    )
    def test_malformed_file_is_a_usage_error(self, tmp_path, document, command, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError):
            load_channels(str(path), None)
        assert main([*command, "--channels", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRateCommand:
    def test_basic(self, channels_file, capsys):
        code = main(["rate", "--channels", channels_file, "--mu", "2.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n = 3 channels" in out
        assert "Theorem 4" in out
        assert "Z_C" in out

    def test_inline_channels(self, capsys):
        code = main(
            ["rate", "--channel", "0.1,0.0,0.5,10", "--channel", "0.2,0.0,0.1,30"]
        )
        assert code == 0
        assert "total rate = 40" in capsys.readouterr().out

    def test_missing_channels_errors(self, capsys):
        code = main(["rate"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_privacy_at_max_rate(self, channels_file, capsys):
        code = main(
            ["optimize", "--channels", channels_file, "--kappa", "2", "--mu", "2.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kappa = 2.0000" in out
        assert "atoms:" in out

    def test_free_and_limited_flags(self, channels_file, capsys):
        code = main(
            [
                "optimize", "--channels", channels_file,
                "--kappa", "2", "--mu", "3", "--objective", "delay",
                "--free", "--limited",
            ]
        )
        assert code == 0

    def test_invalid_parameters_reported(self, channels_file, capsys):
        code = main(
            ["optimize", "--channels", channels_file, "--kappa", "3", "--mu", "2"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestPlanCommand:
    def test_feasible_plan(self, channels_file, capsys):
        code = main(["plan", "--channels", channels_file, "--max-risk", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: kappa" in out
        assert "risk =" in out

    def test_infeasible_plan(self, channels_file, capsys):
        code = main(["plan", "--channels", channels_file, "--max-risk", "0"])
        assert code == 1
        assert "no feasible plan" in capsys.readouterr().err

    def test_nan_bound_rejected(self, channels_file, capsys):
        code = main(["plan", "--channels", channels_file, "--min-rate", "nan"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSimulateCommand:
    def test_quick_run(self, channels_file, capsys):
        code = main(
            [
                "simulate", "--channels", channels_file,
                "--kappa", "1", "--mu", "1",
                "--duration", "5", "--warmup", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved rate" in out
        assert "achieved/optimal" in out
        # Sanity: the measured ratio printed is near 1.
        ratio = float(out.split("achieved/optimal = ")[1].splitlines()[0])
        assert 0.9 < ratio <= 1.0

    def test_faults_scenario_by_name(self, channels_file, capsys):
        code = main(
            [
                "simulate", "--channels", channels_file,
                "--kappa", "1", "--mu", "1",
                "--duration", "5", "--warmup", "1",
                "--faults", "flap",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults applied" in out
        summary = json.loads(out.split("faults applied = ")[1].splitlines()[0])
        assert summary["applied"] >= 2
        assert summary["by_action"].get("link_down", 0) >= 1

    def test_faults_json_file(self, channels_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps([
            {"time": 2.0, "action": "link_down", "channel": 0},
            {"time": 3.0, "action": "link_up", "channel": 0},
        ]))
        code = main(
            [
                "simulate", "--channels", channels_file,
                "--kappa", "1", "--mu", "1",
                "--duration", "5", "--warmup", "1",
                "--faults", str(plan_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(out.split("faults applied = ")[1].splitlines()[0])
        assert summary["by_action"] == {"link_down": 1, "link_up": 1}

    def test_metrics_out_writes_dump(self, channels_file, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "simulate", "--channels", channels_file,
                "--kappa", "1", "--mu", "1",
                "--duration", "5", "--warmup", "1",
                "--faults", "flap",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics" in out and "trace" in out
        samples = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        names = {s["name"] for s in samples}
        assert "sim_link_delivered_total" in names
        assert "sim_sender_symbols_sent_total" in names
        assert "sim_fault_events_total" in names
        traces = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert any(t["name"] == "fault_applied" for t in traces)

    def test_metrics_out_prometheus_format(self, channels_file, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "simulate", "--channels", channels_file,
                "--kappa", "1", "--mu", "1",
                "--duration", "5", "--warmup", "1",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        text = metrics_path.read_text()
        assert "# TYPE sim_link_delivered_total counter" in text

    def test_offered_rate_defaults_to_practical_maximum(self, channels_file, capsys):
        code = main(
            [
                "simulate", "--channels", channels_file,
                "--kappa", "1", "--mu", "1",
                "--duration", "5", "--warmup", "1",
            ]
        )
        assert code == 0
        channels = load_channels(channels_file, None)
        maximum = practical_max_rate(channels, 1.0, ProtocolConfig(kappa=1.0, mu=1.0).symbol_size)
        assert f"offered rate   = {maximum:.4f} symbols/unit" in capsys.readouterr().out

    def test_explicit_offered_rate_is_used(self, channels_file, capsys):
        code = main(
            [
                "simulate", "--channels", channels_file,
                "--kappa", "1", "--mu", "1",
                "--duration", "5", "--warmup", "1", "--offered-rate", "3",
            ]
        )
        assert code == 0
        assert "offered rate   = 3.0000 symbols/unit" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--offered-rate", "inf"),
            ("--offered-rate", "nan"),
            ("--offered-rate", "0"),
            ("--duration", "-1"),
        ],
    )
    def test_unrunnable_window_rejected(self, channels_file, capsys, option, value):
        # --offered-rate inf used to hang, nan to exit 0 with zeros, 0 to
        # run at the practical maximum rate, and --duration -1 to die in a
        # RuntimeError traceback.
        code = main(
            [
                "simulate", "--channels", channels_file,
                "--kappa", "1", "--mu", "1",
                "--duration", "5", "--warmup", "1", option, value,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_faults_unknown_spec_errors(self, channels_file, capsys):
        code = main(
            [
                "simulate", "--channels", channels_file,
                "--kappa", "1", "--mu", "1",
                "--duration", "5", "--warmup", "1",
                "--faults", "no-such-scenario",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestFleetCommand:
    def test_too_few_channels_for_a_flow_rejected(self, capsys):
        # The default fleet has µ = 4 flows; with three channels the parent
        # exited 0 after delivering 3 of 1,024 symbols.
        assert main(["fleet", "--channels", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "flow 4 (µ=4.0)" in err

    def test_zero_channels_rejected(self, capsys):
        assert main(["fleet", "--channels", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestAttackCommand:
    def run_quick(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = main(
            [
                "attack", "--scenario", "replay_flood",
                "--quick", "--out", str(out), *extra,
            ]
        )
        return code, out

    def test_quick_scenario_runs_clean(self, tmp_path, capsys):
        code, out = self.run_quick(tmp_path, "rows.json")
        assert code == 0
        stdout = capsys.readouterr().out
        assert "replay_flood" in stdout
        rows = json.loads(out.read_text())
        assert len(rows) == 2  # two κ values in quick mode
        assert all(row["wrong_payloads"] == 0 for row in rows)
        assert all(row["scenario"] == "replay_flood" for row in rows)

    def test_same_seed_runs_are_byte_identical(self, tmp_path, capsys):
        _, first = self.run_quick(tmp_path, "a.json")
        _, second = self.run_quick(tmp_path, "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_jobs_fanout_matches_serial(self, tmp_path, capsys):
        _, serial = self.run_quick(tmp_path, "serial.json")
        _, fanned = self.run_quick(tmp_path, "fanned.json", extra=("--jobs", "2"))
        assert serial.read_bytes() == fanned.read_bytes()

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["attack", "--scenario", "zero-day"])
        assert "invalid choice" in capsys.readouterr().err

    def test_kappa_override(self, tmp_path, capsys):
        out = tmp_path / "kappa.json"
        code = main(
            [
                "attack", "--scenario", "corruption_storm", "--quick",
                "--kappa", "2", "--out", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert [row["kappa"] for row in rows] == [2.0]
        assert all(row["min_k_sampled"] >= 2 for row in rows)
