"""The :class:`Finding` record and its stable JSON form.

A finding pinpoints one reproducibility hazard: which file, which line
and column, which rule fired and a human-readable message.  Findings
sort by ``(file, line, column, rule)`` so reports are deterministic, and
serialise to plain sorted-key JSON so the ``--format json`` output is
stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule hit at one source location.

    Attributes:
        file: path of the offending file, relative to the lint root,
            always with forward slashes (stable across platforms).
        line: 1-based line of the offending node.
        column: 0-based column of the offending node (``ast`` convention).
        rule: id of the rule that fired (e.g. ``"wall-clock"``).
        message: human-readable description of the hazard.
    """

    file: str
    line: int
    column: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON output (keys sorted by the dumper)."""
        return {
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        """The one-line text form: ``file:line:col: rule: message``."""
        return f"{self.file}:{self.line}:{self.column}: {self.rule}: {self.message}"
