"""Packaging: every third-party module src/repro imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_names(path):
    """Top-level module names of every absolute import in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
        for requirement in pyproject["project"]["dependencies"]
    }
    imported = {
        name
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for name in imported_top_level_names(path)
    }
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party, "found no third-party imports; is the walk broken?"
    assert sorted(third_party - declared) == []
