"""The :class:`Rule` base class and the file context.

A rule is a small stateless object: it declares which ``ast`` node
types it wants (``node_types``), which part of the tree it polices
(``includes`` path prefixes, with an ``allowlist`` of exemptions), and
a ``visit`` hook that yields :class:`~repro.analysis.findings.Finding`
records.  The engine parses each file once and dispatches every node to
every interested rule, so adding a rule never adds a parse or a walk.

Scoping policy lives on the rule classes in :mod:`repro.lint.checks`
(this is a repo-specific linter; the scope *is* the policy), and the
catalogue is the ``RULES`` tuple there.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple, Type

from repro.analysis.findings import Finding
from repro.analysis.resolve import qualified_name

__all__ = ["FileContext", "Rule"]


class FileContext:
    """Everything a rule may consult about the file being linted.

    Attributes:
        relpath: path relative to the lint root, forward slashes.
        aliases: import-alias map (see :mod:`repro.analysis.resolve`).
    """

    def __init__(self, relpath: str, aliases: Dict[str, str]):
        self.relpath = relpath
        self.aliases = aliases

    def qualname(self, node: ast.AST) -> str:
        """Resolve a Name/Attribute chain against this file's imports.

        Returns ``""`` (never matching any rule's qualified-name set)
        when the expression has no static dotted name.
        """
        return qualified_name(node, self.aliases) or ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            file=self.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule=rule.rule_id,
            message=message,
        )


class Rule:
    """Base class for determinism rules.

    Class attributes:

    * ``rule_id``: stable kebab-case id used in reports, directives and
      the baseline.
    * ``description``: one-line summary for ``--list-rules``.
    * ``rationale``: why the hazard breaks ``(seed, config)``
      reproducibility (surfaced in docs/LINTING.md).
    * ``node_types``: the ``ast`` node classes this rule inspects.
    * ``includes``: path prefixes (relative to the lint root) the rule
      applies to; empty means everywhere.
    * ``allowlist``: path prefixes exempt from the rule even inside
      ``includes`` -- for *documented* exceptions only.
    """

    rule_id: str = ""
    description: str = ""
    rationale: str = ""
    node_types: Tuple[Type[ast.AST], ...] = ()
    includes: Tuple[str, ...] = ()
    allowlist: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule polices ``relpath`` under the scoping policy."""
        if self.includes and not any(_under(relpath, p) for p in self.includes):
            return False
        return not any(_under(relpath, p) for p in self.allowlist)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for ``node``; called once per matching node."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.rule_id}>"


def _under(relpath: str, prefix: str) -> bool:
    """True if ``relpath`` is ``prefix`` itself or inside that directory."""
    return relpath == prefix or relpath.startswith(prefix.rstrip("/") + "/")
