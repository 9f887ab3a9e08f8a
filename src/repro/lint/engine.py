"""The single-pass lint engine.

One ``ast.parse`` and one tree walk per file, however many rules are
in the catalogue: per file, the engine builds a ``node type ->
interested rules`` dispatch table from the rules whose scope covers the
file and feeds every node to exactly the rules that declared that type.

The per-file prologue (directives, ``bad-directive`` and ``parse-error``
findings) and the run epilogue (sorting, the baseline partition and the
``lint_*`` obs counters) live in :mod:`repro.analysis.framework`,
shared with the secret-taint analysis; this module keeps only the
lint-specific rule dispatch.  Two runs over the same tree produce
byte-identical reports (pinned by ``tests/test_lint_regression.py``).
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
from repro.lint.checks import default_rules
from repro.lint.rules import FileContext, Rule

__all__ = ["LintEngine", "lint_paths", "PARSE_ERROR"]


class LintEngine:
    """Walks files once and dispatches AST nodes to the catalogue's rules.

    Args:
        baseline: grandfathered findings; absorbed findings are reported
            separately and do not fail the run.
        obs: optional :class:`repro.obs.Observability`; when given, the
            engine emits ``lint_files_scanned_total``,
            ``lint_findings_total{rule=...}``, ``lint_suppressed_total{rule=...}``
            and ``lint_baselined_total`` counters.
    """

    def __init__(self, baseline: Optional[Baseline] = None, obs=None):
        self.rules: List[Rule] = default_rules()
        self.baseline = baseline
        self.obs = obs

    @staticmethod
    def discover(root: str, paths: Sequence[str]) -> List[str]:
        """Resolve files/directories to a sorted list of ``.py`` files.

        Delegates to :func:`repro.analysis.framework.discover`: sorted
        walk, cache/VCS directories skipped, forward-slash relpaths.
        """
        return framework.discover(root, paths, label="lint")

    def lint_source(self, relpath: str, source: str) -> Tuple[List[Finding], List[Finding]]:
        """Lint one file's source text.

        Returns ``(raw_findings, suppressed)`` -- baseline handling is
        run-level, not file-level.
        """
        tree, suppressions, findings = framework.parse_source(
            relpath, source, "lint", [rule.rule_id for rule in self.rules]
        )
        if tree is not None:
            dispatch: Dict[Type[ast.AST], List[Rule]] = {}
            for rule in self.rules:
                if rule.applies_to(relpath):
                    for node_type in rule.node_types:
                        dispatch.setdefault(node_type, []).append(rule)
            if dispatch:
                context = FileContext(relpath=relpath, aliases=collect_aliases(tree))
                for node in ast.walk(tree):
                    for rule in dispatch.get(type(node), ()):
                        findings.extend(rule.visit(node, context))
        findings.sort()
        return split_suppressed(findings, suppressions)

    def run(self, root: str, paths: Sequence[str]) -> AnalysisReport:
        """Lint every ``.py`` file under ``paths`` (relative to ``root``)."""

        def per_file():
            for relpath in self.discover(root, paths):
                with open(os.path.join(root, relpath), encoding="utf-8") as handle:
                    yield self.lint_source(relpath, handle.read())

        return framework.finish_report(per_file(), self.baseline, self.obs, "lint")


def lint_paths(
    root: str,
    paths: Iterable[str],
    baseline: Optional[Baseline] = None,
    obs=None,
) -> AnalysisReport:
    """Convenience wrapper: build an engine and run it once."""
    return LintEngine(baseline=baseline, obs=obs).run(root, list(paths))
