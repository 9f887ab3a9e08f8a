"""``# lint: disable=...`` / ``# taint: ...`` directive parsing.

One suppression form, modelled on the usual linter conventions:
``# lint: disable=rule-a,rule-b`` suppresses those rules on the line the
comment sits on (put it on the first line of a multi-line statement --
findings anchor to the statement's first line).

The same machinery serves every analysis tool: the directive prefix is
the ``tool`` argument (``lint:`` for the determinism linter, ``taint:``
for the secret-flow analysis), and a tool may additionally declare
*annotation* kinds -- ``# taint: source=payload``, ``# taint: sink``,
``# taint: declassified`` -- which are recorded per line rather than
suppressing anything (see docs/TAINT.md for their semantics).

Every suppression is expected to carry a human justification in an
adjacent comment -- the linter cannot check prose, but reviews can; see
docs/LINTING.md.  Directives naming a rule that does not exist are
themselves reported under the ``bad-directive`` pseudo-rule, and so is
any other ``# lint: <word>=`` comment, so typos cannot silently disable
nothing.  Only genuine ``#`` comments count: the source is tokenised,
so directive *examples* inside docstrings and string literals are inert.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterable, List, Sequence, Set, Tuple

__all__ = ["FileSuppressions", "parse_suppressions", "BAD_DIRECTIVE"]

#: Pseudo-rule id under which malformed/unknown directives are reported.
BAD_DIRECTIVE = "bad-directive"


def _directive_re(tool: str) -> "re.Pattern[str]":
    return re.compile(
        r"#\s*" + re.escape(tool)
        + r":\s*disable\s*=\s*(?P<rules>[A-Za-z0-9_,\- ]+)"
    )


def _annotation_re(tool: str, kinds: Sequence[str]) -> "re.Pattern[str]":
    alternation = "|".join(re.escape(kind) for kind in kinds)
    return re.compile(
        r"#\s*" + re.escape(tool)
        + r":\s*(?P<kind>" + alternation + r")\b"
        + r"\s*(?:=\s*(?P<value>[A-Za-z0-9_.,\- ]+))?"
    )


class FileSuppressions:
    """The parsed suppression/annotation state of one source file."""

    def __init__(self) -> None:
        #: line number -> rules disabled on that line
        self.line_rules: Dict[int, Set[str]] = {}
        #: (line, column, message) triples for malformed directives
        self.bad_directives: List[Tuple[int, int, str]] = []
        #: line number -> ``(kind, value)`` annotation directives on that
        #: line (``value`` is ``""`` for bare ``# taint: declassified``)
        self.annotations: Dict[int, List[Tuple[str, str]]] = {}

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True if ``rule`` is disabled on ``line``."""
        return rule in self.line_rules.get(line, ())

    def annotations_on(self, line: int, kind: str) -> List[str]:
        """The values of every ``kind`` annotation on ``line``."""
        return [v for k, v in self.annotations.get(line, ()) if k == kind]

    def has_annotation(self, line: int, kind: str) -> bool:
        """True if ``line`` carries at least one ``kind`` annotation."""
        return any(k == kind for k, _ in self.annotations.get(line, ()))


def _comments(source_lines: Sequence[str]) -> "List[Tuple[int, int, str]]":
    """All ``#`` comment tokens as ``(line, column, text)`` triples.

    Tokenising (rather than scanning lines) keeps directive examples in
    docstrings and string literals inert.  A file that fails to tokenise
    yields no comments -- it will not parse either, and the engine
    reports that as ``parse-error``.
    """
    reader = io.StringIO("\n".join(source_lines) + "\n").readline
    comments: List[Tuple[int, int, str]] = []
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def parse_suppressions(
    source_lines: Sequence[str],
    known_rules: Iterable[str],
    tool: str = "lint",
    annotation_kinds: Sequence[str] = (),
) -> FileSuppressions:
    """Extract the ``tool``'s directives from a file's source lines.

    Args:
        source_lines: the file's lines (1-based indexing is applied here;
            pass ``source.splitlines()``).
        known_rules: valid rule ids; directives naming anything else are
            recorded in :attr:`FileSuppressions.bad_directives`.
        tool: the directive prefix (``"lint"`` or ``"taint"``); each
            tool only sees its own directives.
        annotation_kinds: extra directive keywords recorded per line in
            :attr:`FileSuppressions.annotations` instead of suppressing.
    """
    known = set(known_rules) | {BAD_DIRECTIVE}
    directive = _directive_re(tool)
    annotation = _annotation_re(tool, annotation_kinds) if annotation_kinds else None
    suppressions = FileSuppressions()
    for lineno, column, text in _comments(source_lines):
        if f"{tool}:" not in text:
            continue
        match = directive.search(text)
        if match is None:
            if annotation is not None:
                note = annotation.search(text)
                if note is not None:
                    value = (note.group("value") or "").strip()
                    suppressions.annotations.setdefault(lineno, []).append(
                        (note.group("kind"), value)
                    )
                    continue
            # A comment that clearly tried to be a directive but is not
            # well-formed must fail loudly, or a typo silently disables
            # nothing; prose merely mentioning "lint:" stays exempt via
            # the directive-shaped prefix check.
            if re.match(r"#\s*" + re.escape(tool) + r":\s*\S+\s*=", text):
                suppressions.bad_directives.append(
                    (lineno, column, f"malformed {tool} directive (expected "
                     f"'# {tool}: disable=<rule>[,<rule>]')")
                )
            continue
        names = [name.strip() for name in match.group("rules").split(",")]
        names = [name for name in names if name]
        unknown = sorted(name for name in names if name not in known)
        if unknown:
            suppressions.bad_directives.append(
                (lineno, column, f"unknown rule(s) in {tool} directive: {', '.join(unknown)}")
            )
        valid = {name for name in names if name in known}
        if valid:
            suppressions.line_rules.setdefault(lineno, set()).update(valid)
    return suppressions
