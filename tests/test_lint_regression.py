"""Byte-identity regression lockdown for the determinism linter.

The lint engine was rehosted onto the shared ``repro.analysis.framework``
when the taint analysis landed (docs/TAINT.md).  These tests pin the
*observable* lint contract to literal byte strings captured from the
pre-refactor implementation: CLI text and JSON output, the finding
render format, and the public import paths.
If the framework refactor (or any future one) changes a byte of lint
output, these fail with a diff rather than silently shifting CI gates.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.findings import Finding
from repro.analysis.suppressions import parse_suppressions
from repro.cli import main as repro_main
from repro.lint import LintEngine

WALL_CLOCK_MESSAGE = (
    "wall-clock read time.time() is nondeterministic; use simulated time, "
    "or suppress with a justification in reporting-only code"
)

#: Exact pre-refactor CLI text output for the fixture tree below.
GOLDEN_TEXT = (
    f"src/repro/netsim/bad.py:2:4: wall-clock: {WALL_CLOCK_MESSAGE}\n"
    "1 finding(s) (0 suppressed) in 2 file(s)\n"
)

#: Exact pre-refactor CLI JSON output (indent=1, sorted keys, trailing
#: newline) for the same tree.
GOLDEN_JSON = (
    "{\n"
    ' "counts": {\n'
    '  "wall-clock": 1\n'
    " },\n"
    ' "files_scanned": 2,\n'
    ' "findings": [\n'
    "  {\n"
    '   "column": 4,\n'
    '   "file": "src/repro/netsim/bad.py",\n'
    '   "line": 2,\n'
    f'   "message": "{WALL_CLOCK_MESSAGE}",\n'
    '   "rule": "wall-clock"\n'
    "  }\n"
    " ],\n"
    ' "ok": false,\n'
    ' "suppressed": 0,\n'
    ' "version": 2\n'
    "}\n"
)


def lint_main(argv):
    return repro_main(["lint", *argv])


@pytest.fixture
def fixture_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "netsim"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import time\nt = time.time()\n")
    (pkg / "ok.py").write_text("x = 1\n")
    return tmp_path


class TestCliOutputBytes:
    def test_text_output_is_byte_identical(self, fixture_tree, capsys):
        assert lint_main(["--root", str(fixture_tree), "--format", "text", "src"]) == 1
        assert capsys.readouterr().out == GOLDEN_TEXT

    def test_json_output_is_byte_identical(self, fixture_tree, capsys):
        assert lint_main(["--root", str(fixture_tree), "--format", "json", "src"]) == 1
        assert capsys.readouterr().out == GOLDEN_JSON

    def test_json_is_loadable_and_versioned(self, fixture_tree, capsys):
        lint_main(["--root", str(fixture_tree), "--format", "json", "src"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2


class TestFindingContract:
    def test_render_format(self):
        finding = Finding(
            file="src/a.py", line=3, column=7, rule="wall-clock", message="msg"
        )
        assert finding.render() == "src/a.py:3:7: wall-clock: msg"

    def test_engine_finding_matches_golden(self):
        live, suppressed = LintEngine().lint_source(
            "src/repro/netsim/bad.py", "import time\nt = time.time()\n"
        )
        assert suppressed == []
        (finding,) = live
        assert finding == Finding(
            file="src/repro/netsim/bad.py",
            line=2,
            column=4,
            rule="wall-clock",
            message=WALL_CLOCK_MESSAGE,
        )

    def test_sort_order_is_positional(self):
        findings = [
            Finding(file="b.py", line=1, column=0, rule="r", message="m"),
            Finding(file="a.py", line=2, column=0, rule="r", message="m"),
            Finding(file="a.py", line=1, column=5, rule="r", message="m"),
            Finding(file="a.py", line=1, column=0, rule="r", message="m"),
        ]
        assert [f.file + str(f.line) + str(f.column) for f in sorted(findings)] == [
            "a.py10",
            "a.py15",
            "a.py20",
            "b.py10",
        ]


class TestImportPaths:
    """Directive diagnostics keep their wording at the shared parser."""

    def test_lint_directive_messages_unchanged(self):
        suppressions = parse_suppressions(["x = 1  # lint: disable=not-a-rule"], ["wall-clock"])
        ((line, column, message),) = suppressions.bad_directives
        assert line == 1
        assert message == "unknown rule(s) in lint directive: not-a-rule"


class TestExitCodes:
    def test_clean_tree_exit_zero(self, tmp_path, capsys):
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "ok.py").write_text("x = 1\n")
        assert lint_main(["--root", str(tmp_path), "src"]) == 0
        assert capsys.readouterr().out == "0 finding(s) (0 suppressed) in 1 file(s)\n"

    def test_missing_path_exit_two(self, tmp_path, capsys):
        assert lint_main(["--root", str(tmp_path), "nope"]) == 2
        assert "lint path does not exist" in capsys.readouterr().err
