"""Command-line front end for the determinism linter.

Reached three ways, all sharing this module:

* ``repro-model lint ...`` (the installed console script),
* ``python -m repro.cli lint ...``,
* ``python -m repro.lint ...``.

Exit status: 0 when the tree is clean (after suppressions and the
baseline), 1 when live findings remain, 2 on usage errors -- so CI can
gate on the exit code alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis.framework import print_report
from repro.analysis.baseline import Baseline
from repro.lint.checks import default_rules
from repro.lint.engine import LintEngine

__all__ = ["add_lint_arguments", "main", "run_lint"]

#: Default lint targets, relative to the root (missing ones are skipped).
DEFAULT_PATHS = ("src", "tests", "benchmarks")

#: Default baseline location, relative to the root.
DEFAULT_BASELINE = "lint-baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with repro.cli)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
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
        "--baseline",
        metavar="PATH",
        help=f"baseline file of grandfathered findings (default: "
        f"{DEFAULT_BASELINE} next to --root when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report every finding)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="also emit the lint rule-hit counters through repro.obs to "
        "this path (format inferred from the suffix; see docs/OBSERVABILITY.md)",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        for rule in default_rules():
            scope = ", ".join(rule.includes) if rule.includes else "everywhere"
            print(f"{rule.rule_id:22s} {rule.description}  [scope: {scope}]")
        return 0

    root = os.path.abspath(args.root)
    paths = list(args.paths)
    if not paths:
        paths = [p for p in DEFAULT_PATHS if os.path.exists(os.path.join(root, p))]
        if not paths:
            print(f"error: no default lint paths exist under {root}", file=sys.stderr)
            return 2

    baseline_path = args.baseline or os.path.join(root, DEFAULT_BASELINE)
    baseline: Optional[Baseline] = None
    if not args.no_baseline and not args.update_baseline and os.path.exists(baseline_path):
        baseline = Baseline.load(baseline_path)

    obs = None
    if args.metrics_out:
        from repro.obs import Observability

        obs = Observability.create()

    engine = LintEngine(baseline=baseline, obs=obs)
    try:
        report = engine.run(root, paths)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        Baseline.from_findings(report.findings).write(baseline_path)
        print(f"baseline: {len(report.findings)} finding(s) -> {baseline_path}")
        return 0

    print_report(report, args.format)

    if obs is not None:
        from repro.obs import write_metrics

        write_metrics(args.metrics_out, obs.registry.snapshot())

    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism linter for the repro tree "
        "(see docs/LINTING.md)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
