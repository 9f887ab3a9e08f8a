"""End-to-end tests for the ``repro-model taint`` command line.

Mirrors tests/test_lint_cli.py: temporary trees with planted leaks for
the exit-code/format contract, plus the live-tree meta-test -- the
shipped repository must analyze clean, so every secret flow in
``src/repro`` is either sanitized, declassified with a justification,
or genuinely absent.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import framework
from repro.analysis.taint import TaintEngine
from repro.cli import main as repro_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LEAKY = """\
def deliver(secret):
    print(secret)
"""

CLEAN = """\
def deliver(count):
    return count + 1
"""


def taint_main(argv):
    return repro_main(["taint", *argv])


def build_tree(tmp_path, files):
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


@pytest.fixture
def leaky_tree(tmp_path):
    return build_tree(
        tmp_path,
        {
            "src/repro/demo/leaky.py": LEAKY,
            "src/repro/demo/clean.py": CLEAN,
        },
    )


@pytest.fixture
def clean_tree(tmp_path):
    return build_tree(tmp_path, {"src/repro/demo/clean.py": CLEAN})


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        assert taint_main(["--root", str(clean_tree), "src"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_leaky_tree_exits_one(self, leaky_tree, capsys):
        assert taint_main(["--root", str(leaky_tree), "src"]) == 1
        out = capsys.readouterr().out
        assert "taint-print" in out
        assert "src/repro/demo/leaky.py:2:4:" in out

    def test_missing_path_exits_two(self, clean_tree, capsys):
        assert taint_main(["--root", str(clean_tree), "nonexistent"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_default_paths_cover_src(self, leaky_tree):
        # No positional paths: defaults to src/ under the root.
        assert taint_main(["--root", str(leaky_tree)]) == 1


class TestJsonFormat:
    def test_schema(self, leaky_tree, capsys):
        assert taint_main(["--root", str(leaky_tree), "--format", "json", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["ok"] is False
        assert payload["files_scanned"] == 2
        assert payload["counts"] == {"taint-print": 1}
        (finding,) = payload["findings"]
        assert finding["file"] == "src/repro/demo/leaky.py"
        assert finding["rule"] == "taint-print"
        assert sorted(finding) == ["column", "file", "line", "message", "rule"]

    def test_same_schema_as_lint(self, leaky_tree, capsys):
        """The shared framework keeps lint and taint JSON key-compatible."""
        taint_main(["--root", str(leaky_tree), "--format", "json", "src"])
        taint_payload = json.loads(capsys.readouterr().out)
        repro_main(["lint", "--root", str(leaky_tree), "--format", "json", "src"])
        lint_payload = json.loads(capsys.readouterr().out)
        assert sorted(taint_payload) == sorted(lint_payload)


class TestBaselineFile:
    def test_baseline_file_next_to_root_gates_nothing(self, leaky_tree, capsys):
        # A finding is exempted only inline: a baseline file next to --root
        # that lists it ({"version": 1, "findings": [...]}) changes nothing.
        assert taint_main(["--root", str(leaky_tree), "--format", "json", "src"]) == 1
        entries = [
            {"count": 1, "file": f["file"], "message": f["message"], "rule": f["rule"]}
            for f in json.loads(capsys.readouterr().out)["findings"]
        ]
        (leaky_tree / "taint-baseline.json").write_text(
            json.dumps({"findings": entries, "version": 1})
        )
        assert taint_main(["--root", str(leaky_tree), "src"]) == 1
        assert "1 finding(s) (0 suppressed) in 2 file(s)" in capsys.readouterr().out


class TestCatalogue:
    def test_list_sinks(self, capsys):
        assert taint_main(["--list-sinks"]) == 0
        out = capsys.readouterr().out
        assert "sinks:" in out
        assert "sources:" in out
        assert "sanitizers:" in out
        for rule in (
            "taint-print",
            "taint-log",
            "taint-trace",
            "taint-metrics",
            "taint-persist",
            "taint-format",
        ):
            assert rule in out


class TestReproCli:
    def test_taint_subcommand(self, leaky_tree, capsys):
        assert repro_main(["taint", "--root", str(leaky_tree), "src"]) == 1
        assert "taint-print" in capsys.readouterr().out


class TestLiveTree:
    """The repository's own sources must be taint-clean -- the satellite
    acceptance criterion (`live-tree-taints-clean`)."""

    def test_src_tree_is_clean(self):
        report = TaintEngine().run(REPO_ROOT, ["src"])
        assert report.findings == [], [f.render() for f in report.findings]
        assert report.ok
        assert report.files_scanned > 100

    def test_cli_on_live_tree_exits_zero(self, capsys):
        assert taint_main(["--root", REPO_ROOT]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_live_tree_fixpoint_is_stable(self):
        """A second engine run over the same sources reports identically
        (determinism: sorted discovery + bounded fixpoint)."""
        files = []
        for relpath in framework.discover(REPO_ROOT, ["src/repro/sharing"], label="taint"):
            with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as handle:
                files.append((relpath, handle.read()))
        first = TaintEngine().analyze_sources(files)
        second = TaintEngine().analyze_sources(files)
        assert first.findings == second.findings
        assert first.to_dict() == second.to_dict()
