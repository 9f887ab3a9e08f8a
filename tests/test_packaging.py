"""Packaging: every third-party module src/repro imports is a declared
dependency, and every test lives where pytest collects it."""

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


def test_benchmark_scripts_hold_no_tests():
    # pytest collects only test_*.py files (pyproject.toml), and CI points it
    # at tests/ and benchmarks/ledger/ only, so a test written into a
    # bench_*.py script would never run.  Its checks belong in tier-1 or in
    # the script's own check, which CI runs.
    scripts = sorted(
        path
        for path in (ROOT / "benchmarks").rglob("*.py")
        if "ledger" not in path.relative_to(ROOT / "benchmarks").parts
    )
    assert scripts, "found no benchmark scripts; is the walk broken?"
    prefixes = {ast.FunctionDef: "test_", ast.AsyncFunctionDef: "test_", ast.ClassDef: "Test"}
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path in scripts
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if type(node) in prefixes and node.name.startswith(prefixes[type(node)])
    ]
    assert found == []
