"""Determinism linter: static enforcement of reproducibility invariants.

Every result this reproduction publishes -- the Fig. 3-7 comparisons
against the closed-form optima, the fault-injection chaos tests, the
sweep cache's content-addressed hits -- rests on one invariant: a
``(seed, config)`` pair produces byte-identical output.  The dynamic
same-seed trace tests check that invariant *after* a hazard lands; this
package proves a class of hazards absent at lint time, in the spirit of
the paper's own methodology (guarantees derived statically from the
model rather than observed empirically).

The subsystem is a small set of determinism rules on top of the shared
static-analysis framework (:mod:`repro.analysis.framework`: the
``Finding`` record, import-alias resolution, ``# lint: disable=``
directives, the report and the command line -- see docs/LINTING.md):

* :mod:`repro.lint.rules` -- the :class:`Rule` base class.
* :mod:`repro.lint.checks` -- the determinism rule catalogue, the
  ``RULES`` tuple (``wall-clock``, ``unseeded-rng``,
  ``unordered-iteration``, ``env-read``, ``mutable-default``,
  ``float-eq``).
* :mod:`repro.lint.engine` -- the single-pass visitor that walks the
  tree once per file and dispatches every node to the interested rules,
  and the ``LINT`` record behind ``repro-model lint``.

The linter is itself deterministic: files are discovered in sorted
order, nodes are visited in AST order and findings are reported sorted
by ``(file, line, column, rule)``, so two runs over the same tree emit
byte-identical output.  CI gates on ``repro-model lint`` exiting zero
(see ``.github/workflows/ci.yml`` and docs/LINTING.md).
"""

from repro.lint.checks import default_rules
from repro.lint.engine import LintEngine
from repro.lint.rules import Rule

__all__ = ["LintEngine", "Rule", "default_rules"]
