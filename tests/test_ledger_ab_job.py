"""CI's ``ledger-ab`` job, the one timing gate: its script against a stub ledger.

The job's verdict rule is shell in ``.github/workflows/ci.yml``.  These
tests lift the A/B step's ``run:`` block out of the workflow and run it as
GitHub runs a step (``bash -e``) in a throwaway three-commit repository
whose ``benchmarks/ledger/ledger.py`` is a stub.  The stub logs which
checkout's ``src/`` and which ledger code each run used, and exits as the
test asks: like the real ``ledger.py --compare``, a compare that reads
``worse`` exits 1.
"""

import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: The job's output directory; each test swaps in a directory of its own.
OUT_LINE = "out=/tmp/ledger-ab\n"

#: The stub finds its checkout's ``src/`` where the real ledger does and
#: reads ``src/side.txt``; ``@LEDGER@`` tells the ledger code's versions
#: apart.  ``AB_WORSE`` lists the base runs whose compare reads ``worse``;
#: ``AB_CRASH`` names a run that fails.
STUB = """\
import json
import os
import sys
from pathlib import Path

side = (Path(__file__).resolve().parents[2] / "src" / "side.txt").read_text().strip()
log = Path(os.environ["AB_LOG"])
args = sys.argv[1:]
if args[0] == "--compare":
    base, head = (Path(arg).stem for arg in args[1:])
    with log.open("a") as f:
        f.write(f"compare {base} {head}\\n")
    sys.exit(1 if base in os.environ.get("AB_WORSE", "").split(",") else 0)
assert args[:2] == ["--quick", "--json"], args
out = Path(args[2])
with log.open("a") as f:
    f.write(f"run {out.stem} src={side} ledger=@LEDGER@\\n")
out.write_text(json.dumps({"side": side}))
sys.exit(2 if out.stem == os.environ.get("AB_CRASH") else 0)
"""


def workflow_job(name: str) -> list:
    """The lines of one job of ci.yml, its ``name:`` key line first."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"  {name}:")
    end = next(
        (i for i in range(start + 1, len(lines)) if re.match(r"  \S", lines[i])),
        len(lines),
    )
    return lines[start:end]


def job_script() -> str:
    """The ``run:`` block of the job's A/B step, dedented."""
    lines = workflow_job("ledger-ab")
    step = next(i for i, line in enumerate(lines) if line.strip().startswith("- name: Ledger A/B"))
    run = next(i for i in range(step, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        [
            "git", "-c", "user.name=ledger-ab", "-c", "user.email=ledger-ab@example.invalid",
            "-c", "commit.gpgsign=false", *args,
        ],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """Grandparent, parent (old ledger code) and head (new ledger code)."""
    repo = tmp_path_factory.mktemp("checkout")
    git(repo, "init", "-q")
    for side, ledger in (("grandparent", "old"), ("base", "old"), ("head", "new")):
        (repo / "src").mkdir(exist_ok=True)
        (repo / "src" / "side.txt").write_text(side + "\n")
        (repo / "benchmarks" / "ledger").mkdir(parents=True, exist_ok=True)
        (repo / "benchmarks" / "ledger" / "ledger.py").write_text(STUB.replace("@LEDGER@", ledger))
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", side)
    return repo


def run_job(repo: Path, tmp_path: Path, **env: str):
    """Run the job's script in ``repo``; its exit code and the stub's log."""
    script = job_script()
    assert script.count(OUT_LINE) == 1, script
    (tmp_path / "job.sh").write_text(script.replace(OUT_LINE, f"out={tmp_path / 'ab'}\n"))
    # The script calls ``python``: make that this interpreter.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python").write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    (bin_dir / "python").chmod(0o755)
    log = tmp_path / "ab.log"
    environ = {
        **os.environ,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        "AB_LOG": str(log),
        **env,
    }
    proc = subprocess.run(
        ["bash", "-e", str(tmp_path / "job.sh")],
        cwd=repo, env=environ, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, log.read_text().splitlines() if log.exists() else []


@pytest.mark.parametrize(
    "worse, job_fails",
    [("", False), ("base1", False), ("base2", False), ("base1,base2", True)],
    ids=["no-pair-worse", "first-pair-worse", "second-pair-worse", "both-pairs-worse"],
)
def test_fails_only_when_both_pairs_read_worse(checkout, tmp_path, worse, job_fails):
    code, log = run_job(checkout, tmp_path, AB_WORSE=worse)
    assert (code != 0) == job_fails, log
    assert [line for line in log if line.startswith("compare")] == [
        "compare base1 head1",
        "compare base2 head2",
    ]


def test_runs_base_head_head_base_with_this_ledger(checkout, tmp_path):
    # The base is HEAD^1 (not an older commit), and it runs this commit's
    # benchmarks/ledger/ on its own src/.
    code, log = run_job(checkout, tmp_path)
    assert code == 0, log
    assert log == [
        "run base1 src=base ledger=new",
        "run head1 src=head ledger=new",
        "run head2 src=head ledger=new",
        "run base2 src=base ledger=new",
        "compare base1 head1",
        "compare base2 head2",
    ]


def test_head_is_the_working_tree(checkout, tmp_path):
    # Run locally, the job measures uncommitted edits as head.
    repo = tmp_path / "repo"
    shutil.copytree(checkout, repo)
    (repo / "src" / "side.txt").write_text("edited\n")
    code, log = run_job(repo, tmp_path)
    assert code == 0, log
    assert [line.split()[2] for line in log if line.startswith("run")] == [
        "src=base", "src=edited", "src=edited", "src=base",
    ]


@pytest.mark.parametrize("run", ["base1", "head1", "head2", "base2"])
def test_a_failed_ledger_run_fails_the_job(checkout, tmp_path, run):
    code, log = run_job(checkout, tmp_path, AB_CRASH=run)
    assert code != 0, log
    assert not [line for line in log if line.startswith("compare")]


def test_leaves_the_checkout_untouched(checkout, tmp_path):
    code, log = run_job(checkout, tmp_path, AB_WORSE="base1,base2")
    assert code != 0, log
    assert git(checkout, "status", "--porcelain", "--untracked-files=all") == ""


def test_job_checks_out_the_parent_and_has_a_time_limit():
    job = [line.strip() for line in workflow_job("ledger-ab")]
    assert "fetch-depth: 2" in job
    assert any(line.startswith("timeout-minutes:") for line in job)
    assert "git archive HEAD^1 | tar -x -C \"$out/base\"" in job_script()


def test_job_is_blocking():
    # A job marked continue-on-error would report a slowdown and pass.
    assert not [line for line in workflow_job("ledger-ab") if "continue-on-error" in line]


def test_job_installs_the_runtime_dependencies_but_not_the_package():
    # An installed repro would shadow each side's src/, and the ledger's
    # bootstrap() exits then.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = sorted(
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
        for requirement in pyproject["project"]["dependencies"]
    )
    installs = [
        line.split("pip install", 1)[1].split()
        for line in workflow_job("ledger-ab")
        if "pip install" in line and "--upgrade pip" not in line
    ]
    assert [sorted(packages) for packages in installs] == [declared]
