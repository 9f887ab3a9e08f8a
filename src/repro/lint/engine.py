"""The single-pass lint engine and its command-line record.

One ``ast.parse`` and one tree walk per file, however many rules are
in the catalogue: per file, the engine builds a ``node type ->
interested rules`` dispatch table from the rules whose scope covers the
file and feeds every node to exactly the rules that declared that type.

The per-file prologue (directives, ``bad-directive`` and ``parse-error``
findings), the run epilogue (one sorted report) and the command line
live in :mod:`repro.analysis.framework`, shared with the secret-taint
analysis; this module keeps only the lint-specific rule dispatch and
the :data:`LINT` record behind ``repro-model lint``.  Two runs over the same tree produce
byte-identical reports (pinned by ``tests/test_lint_regression.py``).
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Sequence, Tuple, Type

from repro.analysis import framework
from repro.analysis.findings import Finding
from repro.analysis.framework import AnalysisReport, collect_aliases, split_suppressed
from repro.lint.checks import default_rules
from repro.lint.rules import FileContext, Rule

__all__ = ["LINT", "LintEngine", "print_rules"]


class LintEngine:
    """Walks files once and dispatches AST nodes to the catalogue's rules."""

    def __init__(self):
        self.rules: List[Rule] = default_rules()

    def lint_source(self, relpath: str, source: str) -> Tuple[List[Finding], List[Finding]]:
        """Lint one file's source text.

        Returns ``(live, suppressed)``, each sorted.
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
            for relpath in framework.discover(root, paths, label="lint"):
                with open(os.path.join(root, relpath), encoding="utf-8") as handle:
                    yield self.lint_source(relpath, handle.read())

        return framework.finish_report(per_file())


def print_rules() -> None:
    """The ``--list-rules`` catalogue: id, description and scope per rule."""
    for rule in default_rules():
        scope = ", ".join(rule.includes) if rule.includes else "everywhere"
        print(f"{rule.rule_id:22s} {rule.description}  [scope: {scope}]")


LINT = framework.Tool(
    name="lint",
    verb="lint",
    engine=LintEngine,
    default_paths=("src", "tests", "benchmarks"),
    catalogue_flag="--list-rules",
    catalogue_help="print the rule catalogue and exit",
    print_catalogue=print_rules,
)
