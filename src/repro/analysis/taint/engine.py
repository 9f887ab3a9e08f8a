"""The whole-program taint engine.

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
   suppression/baseline pipeline, same JSON schema, ``taint_*`` obs
   counters instead of ``lint_*``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis import framework
from repro.analysis.framework import (
    AnalysisReport,
    Baseline,
    Finding,
    FileSuppressions,
    collect_aliases,
    split_suppressed,
)
from repro.analysis.taint.policy import default_policy
from repro.analysis.taint.propagation import ModuleAnalyzer, ModuleInfo, module_name
from repro.analysis.taint.summaries import SummaryTable

__all__ = ["ANNOTATION_KINDS", "MAX_PASSES", "TaintEngine", "taint_paths"]

#: The ``# taint:`` annotation directive keywords (see docs/TAINT.md).
ANNOTATION_KINDS = ("source", "sink", "declassified")

#: Cross-module summary fixpoint bound.
MAX_PASSES = 5


class TaintEngine:
    """Source/sink/sanitizer dataflow analysis over a file tree.

    The source/sink/sanitizer catalogue is the repository threat model
    (:func:`default_policy`).

    Args:
        baseline: grandfathered findings (``taint-baseline.json`` ships
            empty; the mechanism exists for future policy additions).
        obs: optional :class:`repro.obs.Observability`; emits
            ``taint_files_scanned_total``, ``taint_findings_total{rule=...}``,
            ``taint_suppressed_total{rule=...}`` and ``taint_baselined_total``.
    """

    def __init__(self, baseline: Optional[Baseline] = None, obs=None):
        self.policy = default_policy()
        self.baseline = baseline
        self.obs = obs

    @staticmethod
    def discover(root: str, paths: Sequence[str]) -> List[str]:
        return framework.discover(root, paths, label="taint")

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
        return framework.finish_report(split, self.baseline, self.obs, "taint")

    def run(self, root: str, paths: Sequence[str]) -> AnalysisReport:
        """Analyze every ``.py`` file under ``paths`` (relative to ``root``)."""
        files: List[Tuple[str, str]] = []
        for relpath in self.discover(root, paths):
            with open(os.path.join(root, relpath), encoding="utf-8") as handle:
                files.append((relpath, handle.read()))
        return self.analyze_sources(files)


def taint_paths(
    root: str,
    paths: Iterable[str],
    baseline: Optional[Baseline] = None,
    obs=None,
) -> AnalysisReport:
    """Convenience wrapper: build an engine and run it once."""
    return TaintEngine(baseline=baseline, obs=obs).run(root, list(paths))
