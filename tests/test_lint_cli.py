"""CLI surface of the determinism linter, plus the live-tree meta-test."""

import importlib.util
import json
import os

import pytest

from repro.cli import main as repro_main
from repro.lint import LintEngine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HAZARD = "import time\nt = time.time()\n"
CLEAN = "def f(x):\n    return x + 1\n"


def lint_main(argv):
    return repro_main(["lint", *argv])


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

    def test_baseline_file_next_to_root_gates_nothing(self, tree, capsys):
        # A finding is exempted only inline: a baseline file next to --root
        # that lists it ({"version": 1, "findings": [...]}) changes nothing.
        assert lint_main(["--root", str(tree), "--format", "json", "src"]) == 1
        entries = [
            {"count": 1, "file": f["file"], "message": f["message"], "rule": f["rule"]}
            for f in json.loads(capsys.readouterr().out)["findings"]
        ]
        (tree / "lint-baseline.json").write_text(
            json.dumps({"findings": entries, "version": 1})
        )
        assert lint_main(["--root", str(tree), "src"]) == 1
        assert "1 finding(s) (0 suppressed) in 2 file(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("tool", ["lint", "taint"])
    @pytest.mark.parametrize(
        "option", [["--no-baseline"], ["--update-baseline"], ["--baseline", "b.json"]]
    )
    def test_baseline_options_are_unknown(self, tree, tool, option, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main([tool, "--root", str(tree), *option, "src"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err

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

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        assert lint_main(["--root", str(tmp_path), "nope"]) == 2


#: Per tool: a file with one live finding at line 2, column 4, and the
#: same hazard exempted inline, on its own line, with its justification.
PLANTED = {
    "lint": (
        "src/repro/netsim/mod.py",
        "import time\n"
        "t = time.time()\n"
        "# Reporting-only wall time in this fixture.\n"
        "u = time.time()  # lint: disable=wall-clock\n",
        "wall-clock",
    ),
    "taint": (
        "src/repro/demo/mod.py",
        "def deliver(secret):\n"
        "    print(secret)\n"
        "\n"
        "\n"
        "def audit(secret):\n"
        "    # Demonstration fixture, not a real sink.\n"
        "    print(secret)  # taint: disable=taint-print\n",
        "taint-print",
    ),
}


@pytest.fixture(params=sorted(PLANTED))
def planted(request, tmp_path):
    tool = request.param
    relpath, source, rule = PLANTED[tool]
    path = tmp_path / relpath
    path.parent.mkdir(parents=True)
    path.write_text(source)
    return tool, tmp_path, relpath, rule


class TestSharedFrontEnd:
    """Both analysers have one way in, ``repro-model <tool>``, and one way
    to exempt a finding, an inline directive on its line.  Every usage
    error there exits 2 with one ``error:`` line, never a traceback."""

    def test_inline_disable_is_counted_as_suppressed(self, planted, capsys):
        tool, root, relpath, rule = planted
        assert repro_main([tool, "--root", str(root), "src"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"{relpath}:2:4: {rule}: ")
        assert lines[1] == "1 finding(s) (1 suppressed) in 1 file(s)"

    def test_json_report_counts_live_and_suppressed(self, planted, capsys):
        tool, root, relpath, rule = planted
        assert repro_main([tool, "--root", str(root), "--format", "json", "src"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["files_scanned"] == 1
        assert data["counts"] == {rule: 1}
        assert data["suppressed"] == 1
        assert [(f["file"], f["line"], f["rule"]) for f in data["findings"]] == [
            (relpath, 2, rule)
        ]

    def test_metrics_out_is_not_an_option(self, planted, tmp_path, capsys):
        # The report is the one output; the analysers record nothing
        # through repro.obs.
        tool, root, _, _ = planted
        metrics = tmp_path / "metrics.jsonl"
        with pytest.raises(SystemExit) as exc:
            repro_main([tool, "--root", str(root), "--metrics-out", str(metrics), "src"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --metrics-out" in capsys.readouterr().err
        assert not metrics.exists()

    def test_whole_file_directive_fails_loudly(self, planted, capsys):
        tool, root, relpath, rule = planted
        path = root / relpath
        path.write_text(f"# {tool}: file-disable={rule}\n" + path.read_text())
        assert repro_main([tool, "--root", str(root), "src"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            f"{relpath}:1:0: bad-directive: malformed {tool} directive "
            f"(expected '# {tool}: disable=<rule>[,<rule>]')"
        )
        assert lines[1].startswith(f"{relpath}:3:4: {rule}: ")
        assert lines[2] == "2 finding(s) (1 suppressed) in 1 file(s)"

    def test_missing_path_is_one_error_line(self, planted, capsys):
        tool, root, _, _ = planted
        assert repro_main([tool, "--root", str(root), "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tool} path does not exist: 'nope'\n"

    def test_no_default_paths_is_one_error_line(self, planted, capsys):
        tool, root, _, _ = planted
        empty = root / "empty"
        empty.mkdir()
        assert repro_main([tool, "--root", str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no default {tool} paths exist under {empty}\n"

    def test_unknown_format_is_rejected(self, planted, capsys):
        tool, root, _, _ = planted
        with pytest.raises(SystemExit) as exc:
            repro_main([tool, "--root", str(root), "--format", "xml", "src"])
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    @pytest.mark.parametrize("package", ["repro.lint", "repro.analysis.taint"])
    def test_no_module_entry_point(self, package):
        assert importlib.util.find_spec(package) is not None
        assert importlib.util.find_spec(f"{package}.__main__") is None


class TestLiveTree:
    """The acceptance gate: this repository lints clean."""

    PATHS = ("src", "tests", "benchmarks")

    def test_tree_lints_clean(self):
        report = LintEngine().run(REPO_ROOT, list(self.PATHS))
        assert report.ok, "\n".join(f.render() for f in report.findings)
        # The four wall-time reporting sites in experiments/runner.py and
        # the documented exact-zero sentinels in adversary/riskassess.py
        # and core/overlap.py are suppressed, not silently exempted.
        assert len(report.suppressed) >= 6

    def test_cli_exits_zero_on_repo(self, capsys):
        assert lint_main(["--root", REPO_ROOT]) == 0
