"""The whole-program taint engine and its command-line record.

Runs in three stages over the discovered tree:

1. **Parse** every file once (the shared per-file prologue:
   ``# taint:`` directives, ``bad-directive`` and ``parse-error``
   findings).
2. **Summary fixpoint**: repeat summary-only module passes until no
   function summary or attribute-taint entry changes (bounded by
   :data:`MAX_PASSES`); this is what lets taint introduced in
   ``protocol.dibs`` surface at a sink reached through ``sender`` ->
   ``netsim`` -> ``obs`` call chains.
3. **Collection**: one final pass emits findings, which then flow
   through the run epilogue the determinism linter uses -- same
   suppression pipeline, same JSON schema.

The :data:`TAINT` record puts the engine behind ``repro-model taint``
through the shared command line in :mod:`repro.analysis.framework`.
Exit status is the linter's: 0 clean, 1 live findings, 2 usage errors.
Unlike the linter, the default scope is the shipped package only: tests
and benchmarks legitimately print and persist secret-adjacent fixtures.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

from repro.analysis import framework
from repro.analysis.framework import (
    AnalysisReport,
    Finding,
    FileSuppressions,
    collect_aliases,
    split_suppressed,
)
from repro.analysis.taint.policy import default_policy
from repro.analysis.taint.propagation import ModuleAnalyzer, ModuleInfo, module_name
from repro.analysis.taint.summaries import SummaryTable

__all__ = ["ANNOTATION_KINDS", "MAX_PASSES", "TAINT", "TaintEngine", "print_catalogue"]

#: The ``# taint:`` annotation directive keywords (see docs/TAINT.md).
ANNOTATION_KINDS = ("source", "sink", "declassified")

#: Cross-module summary fixpoint bound.
MAX_PASSES = 5


class TaintEngine:
    """Source/sink/sanitizer dataflow analysis over a file tree.

    The source/sink/sanitizer catalogue is the repository threat model
    (:func:`default_policy`).
    """

    def __init__(self):
        self.policy = default_policy()

    def analyze_sources(self, files: Sequence[Tuple[str, str]]) -> AnalysisReport:
        """Analyze ``(relpath, source)`` pairs (filesystem-free entry point)."""
        known = self.policy.rule_ids()
        modules: List[ModuleInfo] = []
        findings: Dict[str, List[Finding]] = {}
        suppressions: Dict[str, FileSuppressions] = {}
        for relpath, source in files:
            tree, suppressions[relpath], findings[relpath] = framework.parse_source(
                relpath, source, "taint", known, ANNOTATION_KINDS
            )
            if tree is not None:
                modules.append(
                    ModuleInfo(
                        relpath=relpath,
                        module=module_name(relpath),
                        tree=tree,
                        aliases=collect_aliases(tree),
                        suppressions=suppressions[relpath],
                    )
                )

        table = SummaryTable()
        for _ in range(MAX_PASSES):
            before = table.fingerprint()
            for info in modules:
                ModuleAnalyzer(info, self.policy, table, collect=False).run()
            if table.fingerprint() == before:
                break

        for info in modules:
            found = ModuleAnalyzer(info, self.policy, table, collect=True).run()
            findings[info.relpath].extend(found)

        split = (
            split_suppressed(sorted(findings[relpath]), suppressions[relpath])
            for relpath in sorted(findings)
        )
        return framework.finish_report(split)

    def run(self, root: str, paths: Sequence[str]) -> AnalysisReport:
        """Analyze every ``.py`` file under ``paths`` (relative to ``root``)."""
        files: List[Tuple[str, str]] = []
        for relpath in framework.discover(root, paths, label="taint"):
            with open(os.path.join(root, relpath), encoding="utf-8") as handle:
                files.append((relpath, handle.read()))
        return self.analyze_sources(files)


def print_catalogue() -> None:
    """The ``--list-sinks`` catalogue: sinks, sources and sanitizers."""
    policy = default_policy()
    print("sinks:")
    for rule_id, description in policy.sink_catalogue():
        print(f"  {rule_id:18s} {description}")
    print("sources:")
    for sp in policy.source_params:
        scope = ", ".join(sp.includes) if sp.includes else "everywhere"
        print(f"  param {', '.join(sp.names)}  [scope: {scope}]")
    for sc in policy.source_calls:
        names = ", ".join(sc.qualnames + sc.methods)
        print(f"  call {names}  [{sc.label}]")
    print("sanitizers:")
    for sanitizer in policy.sanitizers:
        names = ", ".join(
            sanitizer.qualnames
            + tuple(f"{p}*" for p in sanitizer.prefixes)
            + tuple(f".{m}()" for m in sanitizer.methods)
        )
        print(f"  {names}")


TAINT = framework.Tool(
    name="taint",
    verb="analyze",
    engine=TaintEngine,
    default_paths=("src",),
    catalogue_flag="--list-sinks",
    catalogue_help="print the source/sink/sanitizer catalogue and exit",
    print_catalogue=print_catalogue,
)
