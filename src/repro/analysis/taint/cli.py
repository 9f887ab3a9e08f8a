"""Command-line front end for the secret-taint analysis.

Reached three ways, all through the shared front end in
:mod:`repro.analysis.framework` with the :data:`TAINT` record below:

* ``repro-model taint ...`` (the installed console script),
* ``python -m repro.cli taint ...``,
* ``python -m repro.analysis.taint ...``.

Exit status is the determinism linter's exactly: 0 when the tree is
clean (after suppressions and the baseline), 1 when live findings
remain, 2 on usage errors (including a malformed or missing explicit
baseline) -- CI gates on the exit code alone.  Unlike the linter, the
default scope is the shipped package only: tests and benchmarks
legitimately print and persist secret-adjacent fixtures.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.analysis import framework
from repro.analysis.taint.engine import TaintEngine
from repro.analysis.taint.policy import default_policy

__all__ = ["TAINT", "main", "print_catalogue"]


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
    prog="repro-taint",
    description="secret-flow (source/sink/sanitizer) static analysis "
    "for the repro tree (see docs/TAINT.md)",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return framework.main(TAINT, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
