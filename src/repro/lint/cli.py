"""Command-line front end for the determinism linter.

Reached three ways, all through the shared front end in
:mod:`repro.analysis.framework` with the :data:`LINT` record below:

* ``repro-model lint ...`` (the installed console script),
* ``python -m repro.cli lint ...``,
* ``python -m repro.lint ...``.

Exit status: 0 when the tree is clean (after suppressions and the
baseline), 1 when live findings remain, 2 on usage errors (including a
malformed or missing explicit baseline) -- so CI can gate on the exit
code alone.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.analysis import framework
from repro.lint.checks import default_rules
from repro.lint.engine import LintEngine

__all__ = ["LINT", "main", "print_rules"]


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
    prog="repro-lint",
    description="AST-based determinism linter for the repro tree (see docs/LINTING.md)",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return framework.main(LINT, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
