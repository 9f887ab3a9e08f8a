"""Packaging: every third-party module src/repro imports is a declared
dependency, and every test lives where pytest collects it."""

import ast
import importlib
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


def unnamed_in_ci(root):
    """Benchmark scripts outside ``ledger/`` and root ``BENCH_*.json`` records
    that ``.github/workflows/ci.yml`` does not name."""
    workflow = (root / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    paths = sorted((root / "benchmarks").glob("*.py")) + sorted(root.glob("BENCH_*.json"))
    names = [str(path.relative_to(root)) for path in paths]
    return [name for name in names if name not in workflow]


def test_timing_scripts_and_records_are_run_in_ci():
    # A benchmark script or committed record that no CI step names rots:
    # nothing re-runs it, so its numbers drift from the code unseen.  The
    # ledger (benchmarks/ledger/) is the one timing harness and has CI
    # jobs of its own.
    scripts = sorted((ROOT / "benchmarks").glob("*.py"))
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert scripts and records, "found no benchmark scripts or records; is the walk broken?"
    assert unnamed_in_ci(ROOT) == []


@pytest.mark.parametrize(
    "path, reported",
    [
        ("benchmarks/bench_orphan.py", True),
        ("BENCH_orphan.json", True),
        ("benchmarks/ledger/ledger_orphan.py", False),
    ],
)
def test_unnamed_timing_file_is_reported(tmp_path, path, reported):
    (tmp_path / ".github" / "workflows").mkdir(parents=True)
    (tmp_path / ".github" / "workflows" / "ci.yml").write_text(
        "run: python benchmarks/bench_named.py --check BENCH_named.json\n", encoding="utf-8"
    )
    for name in ("benchmarks/bench_named.py", "BENCH_named.json", path):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("", encoding="utf-8")
    assert unnamed_in_ci(tmp_path) == ([path] if reported else [])


def test_sharing_oracle_is_a_test_module():
    # The scalar GF(2^8) oracle is the tests' reference, like
    # tests/lp_oracle.py; the package no longer ships it.
    from tests import sharing_oracle

    assert callable(sharing_oracle.scalar_shamir_split)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sharing.reference")


def test_public_names_resolve():
    # A name left in __all__ after its definition moved or went breaks
    # ``from <module> import *`` and nothing else.
    checked, missing = [], []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if not any(
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for node in tree.body
        ):
            continue
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        module = importlib.import_module(name)
        checked.append(name)
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert "repro.gf" in checked and "repro.sharing" in checked, checked
    assert missing == []
