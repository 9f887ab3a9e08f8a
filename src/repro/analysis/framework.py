"""Shared static-analysis framework: the one analyser front end.

The determinism linter (:mod:`repro.lint`) and the secret-taint analysis
(:mod:`repro.analysis.taint`) are different *policies* over one
mechanical substrate, which this module owns: sorted file discovery,
the per-file prologue (:func:`parse_source`: ``# tool:`` directives,
``bad-directive`` and ``parse-error`` findings, one ``ast.parse``), the
run epilogue (:func:`finish_report`: one sorted report), and the command
line (:func:`add_arguments` / :func:`run`, parameterised by a
:class:`Tool` record) behind ``repro-model lint`` and ``repro-model
taint``.

So both tools share one option set, one report format and one exit-code
contract -- 0 clean, 1 live findings, 2 usage errors (a missing path, an
unknown option) -- pinned by ``tests/test_lint_regression.py`` and
``tests/test_taint_cli.py``.  A finding is exempted only by an inline
``# <tool>: disable=<rule>`` on its line.  The engines keep only their
analysis: rule dispatch in :class:`~repro.lint.engine.LintEngine`, the
summary fixpoint in :class:`~repro.analysis.taint.engine.TaintEngine`.

The primitive types -- :class:`~repro.analysis.findings.Finding`, the
suppression parser and the import-alias resolver -- are re-exported here
so analysis packages have a single import surface.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    "FileSuppressions",
    "Finding",
    "PARSE_ERROR",
    "SKIP_DIRS",
    "Tool",
    "add_arguments",
    "collect_aliases",
    "discover",
    "finish_report",
    "parse_source",
    "parse_suppressions",
    "print_report",
    "qualified_name",
    "run",
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

    ``findings`` are the live (non-suppressed) hazards; ``ok`` is the CI
    gate.  ``findings`` + ``suppressed`` partitions the raw finding set,
    so a report always accounts for every hazard the analysis saw.
    """

    files_scanned: int = 0
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

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
            "version": 2,
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "counts": self.rule_counts(),
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": len(self.suppressed),
        }

    def summary(self) -> str:
        """One-line human summary for the end of text output."""
        return (
            f"{len(self.findings)} finding(s) ({len(self.suppressed)} suppressed) "
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


def parse_source(
    relpath: str,
    source: str,
    tool: str,
    known_rules: Iterable[str],
    annotation_kinds: Sequence[str] = (),
) -> Tuple[Optional[ast.Module], FileSuppressions, List[Finding]]:
    """The per-file prologue every analyser runs before its own pass.

    Parses ``tool``'s directives (``known_rules`` plus ``parse-error``
    may be named in them) and the AST.  Returns ``(tree, suppressions,
    findings)``: ``findings`` holds one ``bad-directive`` per malformed
    directive and, when the file does not parse, a ``parse-error`` --
    in which case ``tree`` is ``None``.
    """
    suppressions = parse_suppressions(
        source.splitlines(),
        [*known_rules, PARSE_ERROR],
        tool=tool,
        annotation_kinds=annotation_kinds,
    )
    findings = [
        Finding(file=relpath, line=line, column=column, rule=BAD_DIRECTIVE, message=message)
        for line, column, message in suppressions.bad_directives
    ]
    try:
        tree: Optional[ast.Module] = ast.parse(source)
    except SyntaxError as exc:
        tree = None
        findings.append(
            Finding(
                file=relpath,
                line=exc.lineno or 1,
                column=(exc.offset or 1) - 1,
                rule=PARSE_ERROR,
                message=f"file does not parse: {exc.msg}",
            )
        )
    return tree, suppressions, findings


def split_suppressed(
    findings: Sequence[Finding], suppressions: FileSuppressions
) -> Tuple[List[Finding], List[Finding]]:
    """Partition one file's raw findings into ``(live, suppressed)``."""
    live = [f for f in findings if not suppressions.is_suppressed(f.rule, f.line)]
    dead = [f for f in findings if suppressions.is_suppressed(f.rule, f.line)]
    return live, dead


def finish_report(per_file: Iterable[Tuple[List[Finding], List[Finding]]]) -> AnalysisReport:
    """The run epilogue: one report from each file's ``(live, suppressed)``.

    Live findings are sorted run-wide.
    """
    report = AnalysisReport()
    for live, suppressed in per_file:
        report.findings.extend(live)
        report.suppressed.extend(suppressed)
        report.files_scanned += 1
    report.findings.sort()
    return report


def print_report(report: AnalysisReport, fmt: str) -> None:
    """Write a report to stdout in the shared text or JSON form."""
    if fmt == "json":
        json.dump(report.to_dict(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for finding in report.findings:
            print(finding.render())
        print(report.summary())


# -- the command line ------------------------------------------------------------


@dataclass(frozen=True)
class Tool:
    """What the shared command line needs to know about one analyser.

    ``name`` is the directive prefix.  ``engine()`` builds an object
    whose ``run(root, paths)`` returns an :class:`AnalysisReport`.
    ``catalogue_flag`` (e.g. ``--list-rules``) makes the run call
    ``print_catalogue`` instead.
    """

    name: str
    verb: str
    engine: Callable[[], Any]
    default_paths: Tuple[str, ...]
    catalogue_flag: str
    catalogue_help: str
    print_catalogue: Callable[[], None]


def add_arguments(parser: argparse.ArgumentParser, tool: Tool) -> None:
    """Attach ``tool``'s options to ``parser``; ``args.func`` runs it."""
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files/directories to {tool.verb} (default: {' '.join(tool.default_paths)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (text: file:line:col lines; json: stable schema)",
    )
    parser.add_argument(
        tool.catalogue_flag,
        dest="catalogue",
        action="store_true",
        help=tool.catalogue_help,
    )
    parser.set_defaults(func=functools.partial(run, tool))


def run(tool: Tool, args: argparse.Namespace) -> int:
    """Execute a parsed ``tool`` invocation; returns the process exit code.

    A missing path raises ``FileNotFoundError``, which ``repro.cli.main``
    reports as ``error: ...`` with exit status 2.
    """
    if args.catalogue:
        tool.print_catalogue()
        return 0

    root = os.path.abspath(args.root)
    paths = list(args.paths) or [
        p for p in tool.default_paths if os.path.exists(os.path.join(root, p))
    ]
    if not paths:
        raise FileNotFoundError(f"no default {tool.name} paths exist under {root}")

    report = tool.engine().run(root, paths)
    print_report(report, args.format)
    return 0 if report.ok else 1
