"""Engine-level semantics: suppressions, resolution, discovery.

The rule-specific fixtures live in test_lint_rules.py; here the subject
is the machinery around them -- directive parsing, alias resolution,
deterministic file discovery and the JSON form of findings and reports.
"""

import ast
import json
import textwrap

import pytest

from repro.analysis import framework
from repro.analysis.findings import Finding
from repro.analysis.resolve import collect_aliases, qualified_name
from repro.lint import LintEngine

SCOPED = "src/repro/netsim/fixture.py"

WALL_CLOCK_SNIPPET = "import time\nt = time.time()\n"


def lint(code, relpath=SCOPED):
    return LintEngine().lint_source(relpath, textwrap.dedent(code))


class TestSuppressions:
    def test_line_disable(self):
        live, suppressed = lint("import time\nt = time.time()  # lint: disable=wall-clock\n")
        assert live == []
        assert [f.rule for f in suppressed] == ["wall-clock"]

    def test_line_disable_only_covers_its_line(self):
        code = """
        import time
        a = time.time()  # lint: disable=wall-clock
        b = time.time()
        """
        live, suppressed = lint(code)
        assert [f.rule for f in live] == ["wall-clock"]
        assert len(suppressed) == 1

    def test_line_disable_multiple_rules(self):
        code = (
            "import time, os\n"
            "t = (time.time(), os.getenv('X'))  # lint: disable=wall-clock,env-read\n"
        )
        live, suppressed = lint(code)
        assert live == []
        assert sorted(f.rule for f in suppressed) == ["env-read", "wall-clock"]

    def test_whole_file_directive_is_a_bad_directive(self):
        code = """
        # Wall-time is reporting-only in this fixture.
        # lint: file-disable=wall-clock
        import time
        a = time.time()
        b = time.time()
        """
        live, suppressed = lint(code)
        assert [f.rule for f in live] == ["bad-directive", "wall-clock", "wall-clock"]
        assert live[0].message == (
            "malformed lint directive (expected '# lint: disable=<rule>[,<rule>]')"
        )
        assert suppressed == []

    def test_unknown_rule_is_reported(self):
        live, _ = lint("x = 1  # lint: disable=no-such-rule\n")
        assert [f.rule for f in live] == ["bad-directive"]
        assert "no-such-rule" in live[0].message

    def test_malformed_directive_is_reported(self):
        live, _ = lint("x = 1  # lint: disabled=wall-clock\n")
        assert [f.rule for f in live] == ["bad-directive"]

    def test_directive_in_docstring_is_inert(self):
        code = '''
        def f():
            """Suppress with ``# lint: disable=wall-clock`` on the line."""
            return 1
        '''
        live, suppressed = lint(code)
        assert live == [] and suppressed == []

    def test_directive_does_not_suppress_other_rules(self):
        live, _ = lint("import time\nt = time.time()  # lint: disable=env-read\n")
        assert [f.rule for f in live] == ["wall-clock"]


class TestResolution:
    def aliases(self, code):
        return collect_aliases(ast.parse(textwrap.dedent(code)))

    def qual(self, code, expr):
        aliases = self.aliases(code)
        node = ast.parse(expr, mode="eval").body
        return qualified_name(node, aliases)

    def test_plain_import(self):
        assert self.qual("import time", "time.time") == "time.time"

    def test_aliased_import(self):
        assert self.qual("import numpy as np", "np.random.seed") == "numpy.random.seed"

    def test_dotted_import_binds_root(self):
        assert self.qual("import numpy.random", "numpy.random.rand") == "numpy.random.rand"

    def test_from_import_with_alias(self):
        code = "from time import perf_counter as tick"
        assert self.qual(code, "tick") == "time.perf_counter"

    def test_from_import_module_member(self):
        code = "from datetime import datetime"
        assert self.qual(code, "datetime.now") == "datetime.datetime.now"

    def test_unimported_name_resolves_to_itself(self):
        assert self.qual("", "set") == "set"

    def test_relative_import_cannot_collide(self):
        code = "from .faults import FaultPlan"
        assert self.qual(code, "FaultPlan") == ".faults.FaultPlan"

    def test_non_dotted_expressions_resolve_to_none(self):
        aliases = self.aliases("import numpy as np")
        call_result_attr = ast.parse("np.random.default_rng(0).integers", mode="eval").body
        assert qualified_name(call_result_attr, aliases) is None


class TestEngine:
    def test_discovery_is_sorted_and_skips_pycache(self, tmp_path):
        root = tmp_path / "repo"
        (root / "src" / "__pycache__").mkdir(parents=True)
        (root / "src" / "b.py").write_text("x = 1\n")
        (root / "src" / "a.py").write_text("x = 1\n")
        (root / "src" / "__pycache__" / "a.cpython-311.py").write_text("x = 1\n")
        (root / "src" / "notes.txt").write_text("not python\n")
        assert framework.discover(str(root), ["src"]) == ["src/a.py", "src/b.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            framework.discover(str(tmp_path), ["nope"])

    def test_parse_error_is_a_finding(self):
        live, _ = lint("def broken(:\n")
        assert [f.rule for f in live] == ["parse-error"]

    def test_findings_sorted_and_stable(self, tmp_path):
        root = tmp_path / "repo"
        target = root / "src" / "repro" / "netsim"
        target.mkdir(parents=True)
        (target / "b.py").write_text(WALL_CLOCK_SNIPPET)
        (target / "a.py").write_text("import os\nv = os.getenv('X')\n")
        first = LintEngine().run(str(root), ["src"])
        second = LintEngine().run(str(root), ["src"])
        assert [f.to_dict() for f in first.findings] == [f.to_dict() for f in second.findings]
        assert first.findings == sorted(first.findings)
        assert first.files_scanned == 2

    def test_finding_json_round_trip(self):
        # The JSON form carries every field: it rebuilds the same finding.
        live, _ = lint(WALL_CLOCK_SNIPPET)
        (finding,) = live
        assert Finding(**json.loads(json.dumps(finding.to_dict()))) == finding

    def test_empty_report(self):
        report = framework.AnalysisReport()
        assert report.ok
        assert report.to_dict() == {
            "version": 2,
            "files_scanned": 0,
            "ok": True,
            "counts": {},
            "findings": [],
            "suppressed": 0,
        }
        assert report.summary() == "0 finding(s) (0 suppressed) in 0 file(s)"

    def test_report_counts_live_and_suppressed_by_rule(self, tmp_path):
        root = tmp_path / "repo"
        target = root / "src" / "repro" / "netsim"
        target.mkdir(parents=True)
        (target / "mod.py").write_text(
            WALL_CLOCK_SNIPPET + "u = time.time()  # lint: disable=wall-clock\n"
        )
        report = LintEngine().run(str(root), ["src"])
        assert report.files_scanned == 1
        assert report.rule_counts() == {"wall-clock": 1}
        assert [(f.rule, f.line) for f in report.findings] == [("wall-clock", 2)]
        assert [(f.rule, f.line) for f in report.suppressed] == [("wall-clock", 3)]

    def test_report_schema(self, tmp_path):
        root = tmp_path / "repo"
        target = root / "src" / "repro" / "netsim"
        target.mkdir(parents=True)
        (target / "mod.py").write_text(WALL_CLOCK_SNIPPET)
        data = LintEngine().run(str(root), ["src"]).to_dict()
        assert data["version"] == 2
        assert data["ok"] is False
        assert data["counts"] == {"wall-clock": 1}
        assert data["suppressed"] == 0
        assert set(data) == {"version", "files_scanned", "ok", "counts", "findings", "suppressed"}
        assert set(data["findings"][0]) == {"file", "line", "column", "rule", "message"}
