"""Shared static-analysis framework.

PR 4's determinism linter and the secret-taint analysis are different
*policies* over the same mechanical substrate: deterministic file
discovery, one ``ast.parse`` per file, ``# tool:`` directive parsing,
a sorted findings list partitioned into live / suppressed / baselined,
a stable JSON report schema, and rule-hit counters through
:mod:`repro.obs`.  This module owns that substrate; ``repro.lint`` and
``repro.analysis.taint`` both build on it, so the two tools stay
byte-compatible in their report formats and CLI behaviour (pinned by
``tests/test_lint_regression.py``).

The primitive types -- :class:`~repro.analysis.findings.Finding`,
:class:`~repro.analysis.baseline.Baseline`, the suppression parser and the
import-alias resolver -- are re-exported here so analysis packages have
a single import surface.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding
from repro.analysis.resolve import collect_aliases, qualified_name
from repro.analysis.suppressions import (
    BAD_DIRECTIVE,
    FileSuppressions,
    parse_suppressions,
)

__all__ = [
    "AnalysisReport",
    "BAD_DIRECTIVE",
    "Baseline",
    "FileSuppressions",
    "Finding",
    "PARSE_ERROR",
    "SKIP_DIRS",
    "collect_aliases",
    "discover",
    "emit_counters",
    "parse_suppressions",
    "print_report",
    "qualified_name",
    "split_suppressed",
]

#: Rule id under which unparseable files are reported (shared by tools
#: so a broken file fails every gate identically).
PARSE_ERROR = "parse-error"

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".pytest_cache"})


@dataclass
class AnalysisReport:
    """The outcome of one analysis run.

    ``findings`` are the live (non-suppressed, non-baselined) hazards;
    ``ok`` is the CI gate.  ``findings`` + ``suppressed`` + ``baselined``
    partitions the raw finding set, so a report always accounts for
    every hazard the analysis saw.
    """

    root: str
    files_scanned: int = 0
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def rule_counts(self) -> Dict[str, int]:
        """Live findings per rule id, sorted by rule id."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        """The ``--format json`` schema (documented in docs/LINTING.md)."""
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "counts": self.rule_counts(),
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": len(self.suppressed),
            "baselined": len(self.baselined),
        }

    def summary(self) -> str:
        """One-line human summary for the end of text output."""
        return (
            f"{len(self.findings)} finding(s) "
            f"({len(self.suppressed)} suppressed, {len(self.baselined)} baselined) "
            f"in {self.files_scanned} file(s)"
        )


def discover(root: str, paths: Sequence[str], label: str = "lint") -> List[str]:
    """Resolve files/directories to a sorted list of ``.py`` files.

    Directories are walked with sorted listings (an analysis must not
    itself depend on filesystem order); ``__pycache__`` and VCS/tool
    cache directories are skipped.  Paths are returned relative to
    ``root`` with forward slashes.  ``label`` names the tool in the
    missing-path error message.
    """
    found: List[str] = []
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(absolute):
            found.append(os.path.relpath(absolute, root))
            continue
        if not os.path.isdir(absolute):
            raise FileNotFoundError(f"{label} path does not exist: {path!r}")
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(dict.fromkeys(p.replace(os.sep, "/") for p in found))


def split_suppressed(
    findings: Sequence[Finding], suppressions: FileSuppressions
) -> Tuple[List[Finding], List[Finding]]:
    """Partition one file's raw findings into ``(live, suppressed)``."""
    live = [f for f in findings if not suppressions.is_suppressed(f.rule, f.line)]
    dead = [f for f in findings if suppressions.is_suppressed(f.rule, f.line)]
    return live, dead


def emit_counters(report: AnalysisReport, obs, prefix: str) -> None:
    """Rule-hit counters through repro.obs (no-op without obs).

    Emits ``{prefix}_files_scanned_total``,
    ``{prefix}_findings_total{rule=...}``,
    ``{prefix}_suppressed_total{rule=...}`` and
    ``{prefix}_baselined_total``.
    """
    if obs is None:
        return
    registry = obs.registry
    registry.counter(f"{prefix}_files_scanned_total").inc(report.files_scanned)
    for rule_id, count in report.rule_counts().items():
        registry.counter(f"{prefix}_findings_total", rule=rule_id).inc(count)
    suppressed_counts: Dict[str, int] = {}
    for finding in report.suppressed:
        suppressed_counts[finding.rule] = suppressed_counts.get(finding.rule, 0) + 1
    for rule_id, count in sorted(suppressed_counts.items()):
        registry.counter(f"{prefix}_suppressed_total", rule=rule_id).inc(count)
    registry.counter(f"{prefix}_baselined_total").inc(len(report.baselined))


def print_report(report: AnalysisReport, fmt: str) -> None:
    """Write a report to stdout in the shared text or JSON form."""
    if fmt == "json":
        json.dump(report.to_dict(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for finding in report.findings:
            print(finding.render())
        print(report.summary())
