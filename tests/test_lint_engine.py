"""Engine-level semantics: suppressions, baseline, resolution, discovery.

The rule-specific fixtures live in test_lint_rules.py; here the subject
is the machinery around them -- directive parsing, grandfathering,
alias resolution, deterministic file discovery and the JSON round-trip
of findings and reports.
"""

import ast
import json
import textwrap

import pytest

from repro.analysis.resolve import collect_aliases, qualified_name
from repro.lint import Baseline, Finding, LintEngine, lint_paths

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

    def test_file_disable(self):
        code = """
        # Wall-time is reporting-only in this fixture.
        # lint: file-disable=wall-clock
        import time
        a = time.time()
        b = time.time()
        """
        live, suppressed = lint(code)
        assert live == []
        assert len(suppressed) == 2

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


class TestBaseline:
    def finding(self, line=2):
        return Finding(file=SCOPED, line=line, column=4, rule="wall-clock", message="m")

    def test_partition_absorbs_by_identity_not_line(self):
        baseline = Baseline.from_findings([self.finding(line=2)])
        new, grandfathered = baseline.partition([self.finding(line=99)])
        assert new == [] and len(grandfathered) == 1

    def test_counts_absorb_at_most_count_occurrences(self):
        baseline = Baseline.from_findings([self.finding()])
        new, grandfathered = baseline.partition([self.finding(3), self.finding(7)])
        assert len(grandfathered) == 1 and len(new) == 1

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        original = Baseline.from_findings([self.finding(), self.finding(), self.finding(9)])
        original.write(path)
        loaded = Baseline.load(path)
        assert loaded.counts == original.counts
        # Regenerating on unchanged input is byte-identical.
        second = str(tmp_path / "baseline2.json")
        loaded.write(second)
        assert open(path).read() == open(second).read()

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(str(path))
        path.write_text(json.dumps({"version": 1, "findings": [{"file": "x"}]}))
        with pytest.raises(ValueError):
            Baseline.load(str(path))

    def test_engine_reports_baselined_separately(self, tmp_path):
        root = tmp_path / "repo"
        target = root / "src" / "repro" / "netsim"
        target.mkdir(parents=True)
        (target / "mod.py").write_text(WALL_CLOCK_SNIPPET)
        report = lint_paths(str(root), ["src"])
        assert not report.ok and len(report.findings) == 1
        baseline = Baseline.from_findings(report.findings)
        gated = lint_paths(str(root), ["src"], baseline=baseline)
        assert gated.ok and len(gated.baselined) == 1


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
        assert LintEngine.discover(str(root), ["src"]) == ["src/a.py", "src/b.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LintEngine.discover(str(tmp_path), ["nope"])

    def test_parse_error_is_a_finding(self):
        live, _ = lint("def broken(:\n")
        assert [f.rule for f in live] == ["parse-error"]

    def test_findings_sorted_and_stable(self, tmp_path):
        root = tmp_path / "repo"
        target = root / "src" / "repro" / "netsim"
        target.mkdir(parents=True)
        (target / "b.py").write_text(WALL_CLOCK_SNIPPET)
        (target / "a.py").write_text("import os\nv = os.getenv('X')\n")
        first = lint_paths(str(root), ["src"])
        second = lint_paths(str(root), ["src"])
        assert [f.to_dict() for f in first.findings] == [f.to_dict() for f in second.findings]
        assert first.findings == sorted(first.findings)
        assert first.files_scanned == 2

    def test_finding_json_round_trip(self):
        live, _ = lint(WALL_CLOCK_SNIPPET)
        (finding,) = live
        assert Finding.from_dict(json.loads(json.dumps(finding.to_dict()))) == finding

    def test_report_schema(self, tmp_path):
        root = tmp_path / "repo"
        target = root / "src" / "repro" / "netsim"
        target.mkdir(parents=True)
        (target / "mod.py").write_text(WALL_CLOCK_SNIPPET)
        data = lint_paths(str(root), ["src"]).to_dict()
        assert data["version"] == 1
        assert data["ok"] is False
        assert data["counts"] == {"wall-clock": 1}
        assert data["suppressed"] == 0 and data["baselined"] == 0
        assert set(data["findings"][0]) == {"file", "line", "column", "rule", "message"}

    def test_obs_counters(self, tmp_path):
        from repro.obs import Observability

        root = tmp_path / "repo"
        target = root / "src" / "repro" / "netsim"
        target.mkdir(parents=True)
        (target / "mod.py").write_text(
            WALL_CLOCK_SNIPPET + "u = time.time()  # lint: disable=wall-clock\n"
        )
        obs = Observability.create()
        report = lint_paths(str(root), ["src"], obs=obs)
        assert len(report.findings) == 1 and len(report.suppressed) == 1
        registry = obs.registry
        assert registry.counter("lint_files_scanned_total").value == 1
        assert registry.counter("lint_findings_total", rule="wall-clock").value == 1
        assert registry.counter("lint_suppressed_total", rule="wall-clock").value == 1
