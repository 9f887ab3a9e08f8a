"""CLI surface of the determinism linter, plus the live-tree meta-test."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.taint.cli import main as taint_main
from repro.cli import main as repro_main
from repro.lint import Baseline, lint_paths
from repro.lint.cli import main as lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HAZARD = "import time\nt = time.time()\n"
CLEAN = "def f(x):\n    return x + 1\n"


@pytest.fixture
def tree(tmp_path):
    target = tmp_path / "src" / "repro" / "netsim"
    target.mkdir(parents=True)
    (target / "bad.py").write_text(HAZARD)
    (target / "good.py").write_text(CLEAN)
    return tmp_path


class TestLintCli:
    def test_exit_one_on_findings_text(self, tree, capsys):
        assert lint_main(["--root", str(tree), "src"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/netsim/bad.py:2" in out
        assert "wall-clock" in out
        assert "1 finding(s)" in out

    def test_exit_zero_on_clean_tree(self, tree, capsys):
        (tree / "src" / "repro" / "netsim" / "bad.py").write_text(CLEAN)
        assert lint_main(["--root", str(tree), "src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format(self, tree, capsys):
        assert lint_main(["--root", str(tree), "--format", "json", "src"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["counts"] == {"wall-clock": 1}
        assert data["findings"][0]["file"] == "src/repro/netsim/bad.py"

    def test_update_then_gate_on_baseline(self, tree, capsys):
        assert lint_main(["--root", str(tree), "--update-baseline", "src"]) == 0
        baseline_path = tree / "lint-baseline.json"
        assert len(Baseline.load(str(baseline_path))) == 1
        # The default baseline next to --root is picked up automatically...
        assert lint_main(["--root", str(tree), "src"]) == 0
        capsys.readouterr()
        # ...and --no-baseline reports the grandfathered finding again.
        assert lint_main(["--root", str(tree), "--no-baseline", "src"]) == 1

    def test_repro_cli_lint_subcommand(self, tree, capsys):
        assert repro_main(["lint", "--root", str(tree), "src"]) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "wall-clock",
            "unseeded-rng",
            "unordered-iteration",
            "env-read",
            "mutable-default",
            "float-eq",
        ):
            assert rule_id in out

    def test_metrics_out(self, tree, tmp_path, capsys):
        metrics = tmp_path / "lint-metrics.jsonl"
        assert lint_main(["--root", str(tree), "--metrics-out", str(metrics), "src"]) == 1
        names = {json.loads(line)["name"] for line in metrics.read_text().splitlines()}
        assert "lint_files_scanned_total" in names
        assert "lint_findings_total" in names

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        assert lint_main(["--root", str(tmp_path), "nope"]) == 2

    def test_missing_explicit_baseline_ignored_without_gating(self, tree, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        argv = ["--root", str(tree), "--baseline", absent, "src"]
        assert lint_main(["--no-baseline", *argv]) == 1
        assert lint_main(["--update-baseline", *argv]) == 0
        assert os.path.exists(absent)


class TestBadBaseline:
    """Both analysers share one front end: on every entry point, an explicit
    baseline that cannot be used is a usage error (exit 2), never a
    traceback or a silently un-baselined run."""

    @pytest.mark.parametrize(
        "content", ["{not json", '{"version": 2}', None], ids=["malformed", "version-2", "missing"]
    )
    @pytest.mark.parametrize("via", ["main", "python-m"])
    @pytest.mark.parametrize("module", ["repro.lint", "repro.analysis.taint"])
    def test_exit_two(self, tree, tmp_path, module, via, content, capsys):
        baseline = tmp_path / "baseline.json"
        if content is not None:
            baseline.write_text(content)
        argv = ["--root", str(tree), "--baseline", str(baseline), "src"]
        if via == "main":
            main = lint_main if module == "repro.lint" else taint_main
            code, err = main(argv), capsys.readouterr().err
        else:
            env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
            )
            code, err = proc.returncode, proc.stderr
        assert code == 2
        assert err.startswith("error: ")
        if content is None:
            assert err == f"error: baseline file not found: {baseline}\n"


class TestLiveTree:
    """The acceptance gate: this repository lints clean, baseline empty."""

    PATHS = ("src", "tests", "benchmarks")

    def test_shipped_baseline_is_empty(self):
        baseline = Baseline.load(os.path.join(REPO_ROOT, "lint-baseline.json"))
        assert len(baseline) == 0

    def test_tree_lints_clean(self):
        report = lint_paths(REPO_ROOT, [p for p in self.PATHS])
        assert report.ok, "\n".join(f.render() for f in report.findings)
        # The four wall-time reporting sites in experiments/runner.py, the
        # fingerprint override in sweep/cache.py and the documented
        # exact-zero sentinels in adversary/riskassess.py and
        # core/overlap.py are suppressed, not silently exempted.
        assert len(report.suppressed) >= 7

    def test_cli_exits_zero_on_repo(self, capsys):
        assert lint_main(["--root", REPO_ROOT]) == 0
