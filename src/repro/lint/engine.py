"""The single-pass lint engine.

One ``ast.parse`` and one tree walk per file, however many rules are
registered: the engine precomputes a ``node type -> interested rules``
dispatch table and feeds every node to exactly the rules that declared
that type.  Suppressions and the baseline are applied afterwards, so a
report always accounts for every raw finding (``findings`` +
``suppressed`` + ``baselined`` partitions the raw set).

The mechanical substrate -- deterministic discovery, the report
dataclass, suppression splitting, obs counters -- lives in
:mod:`repro.analysis.framework`, shared with the secret-taint analysis;
this module keeps only the lint-specific rule dispatch.  Two runs over
the same tree produce byte-identical reports (pinned by
``tests/test_lint_regression.py``).
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.analysis import framework
from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding
from repro.analysis.framework import (
    PARSE_ERROR,
    AnalysisReport,
    collect_aliases,
    split_suppressed,
)
from repro.analysis.suppressions import BAD_DIRECTIVE, parse_suppressions
from repro.lint.checks import default_rules
from repro.lint.rules import FileContext, Rule

__all__ = ["LintEngine", "LintReport", "lint_paths", "PARSE_ERROR"]


class LintReport(AnalysisReport):
    """The outcome of one lint run (the shared report shape).

    ``findings`` are the live (non-suppressed, non-baselined) hazards;
    ``ok`` is the CI gate.
    """


class LintEngine:
    """Walks files once and dispatches AST nodes to the registered rules.

    Args:
        rules: rule instances to run; defaults to the full catalogue
            with repo-default scoping (:func:`repro.lint.checks.default_rules`).
        baseline: grandfathered findings; absorbed findings are reported
            separately and do not fail the run.
        obs: optional :class:`repro.obs.Observability`; when given, the
            engine emits ``lint_files_scanned_total``,
            ``lint_findings_total{rule=...}``, ``lint_suppressed_total{rule=...}``
            and ``lint_baselined_total`` counters.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        baseline: Optional[Baseline] = None,
        obs=None,
    ):
        self.rules: List[Rule] = list(rules) if rules is not None else default_rules()
        self.baseline = baseline
        self.obs = obs
        self._dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    # -- discovery --------------------------------------------------------------

    @staticmethod
    def discover(root: str, paths: Sequence[str]) -> List[str]:
        """Resolve files/directories to a sorted list of ``.py`` files.

        Delegates to :func:`repro.analysis.framework.discover`: sorted
        walk, cache/VCS directories skipped, forward-slash relpaths.
        """
        return framework.discover(root, paths, label="lint")

    # -- per-file pass ----------------------------------------------------------

    def lint_source(self, relpath: str, source: str) -> Tuple[List[Finding], List[Finding]]:
        """Lint one file's source text.

        Returns ``(raw_findings, suppressed)`` -- baseline handling is
        run-level, not file-level.
        """
        source_lines = source.splitlines()
        known = [rule.rule_id for rule in self.rules] + [PARSE_ERROR]
        suppressions = parse_suppressions(source_lines, known)
        findings: List[Finding] = []
        for line, column, message in suppressions.bad_directives:
            findings.append(
                Finding(file=relpath, line=line, column=column, rule=BAD_DIRECTIVE, message=message)
            )
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    file=relpath,
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    rule=PARSE_ERROR,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            return split_suppressed(findings, suppressions)

        applicable = [rule for rule in self.rules if rule.applies_to(relpath)]
        if applicable:
            context = FileContext(
                relpath=relpath,
                source_lines=source_lines,
                aliases=collect_aliases(tree),
                suppressions=suppressions,
            )
            dispatch: Dict[Type[ast.AST], List[Rule]] = {}
            for rule in applicable:
                for node_type in rule.node_types:
                    dispatch.setdefault(node_type, []).append(rule)
            for node in ast.walk(tree):
                for rule in dispatch.get(type(node), ()):
                    findings.extend(rule.visit(node, context))
        findings.sort()
        return split_suppressed(findings, suppressions)

    @staticmethod
    def _split_suppressed(findings, suppressions) -> Tuple[List[Finding], List[Finding]]:
        return split_suppressed(findings, suppressions)

    # -- whole-run entry point --------------------------------------------------

    def run(self, root: str, paths: Sequence[str]) -> LintReport:
        """Lint every ``.py`` file under ``paths`` (relative to ``root``)."""
        report = LintReport(root=root)
        raw: List[Finding] = []
        for relpath in self.discover(root, paths):
            with open(os.path.join(root, relpath), encoding="utf-8") as handle:
                source = handle.read()
            live, suppressed = self.lint_source(relpath, source)
            raw.extend(live)
            report.suppressed.extend(suppressed)
            report.files_scanned += 1
        raw.sort()
        if self.baseline is not None:
            report.findings, report.baselined = self.baseline.partition(raw)
        else:
            report.findings = raw
        framework.emit_counters(report, self.obs, "lint")
        return report


def lint_paths(
    root: str,
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
    obs=None,
) -> LintReport:
    """Convenience wrapper: build an engine and run it once."""
    return LintEngine(rules=rules, baseline=baseline, obs=obs).run(root, list(paths))
