"""The CI workflow runs what the repository documents: ROADMAP's tier-1
command, on one BLAS thread as ``perfbench`` pins it, under a time limit,
on every Python the package declares. A typo in the workflow, or syntax
newer than the oldest declared Python, then fails here, not on the first
push."""

import ast
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def tier1_command() -> str:
    text = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    return re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", text).group(1)


def perfbench_thread_vars() -> dict:
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "THREAD_VARS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no THREAD_VARS")


def test_the_workflow_runs_the_tier1_command_on_one_blas_thread():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8"))
    (job,) = workflow["jobs"].values()
    assert [step["run"] for step in job["steps"] if "pytest" in step.get("run", "")] == [
        tier1_command()]
    threads = perfbench_thread_vars()
    assert threads == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert {name: job["env"].get(name) for name in threads} == threads
    assert isinstance(job["timeout-minutes"], int) and job["timeout-minutes"] > 0


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_every_source_file_parses_on_the_oldest_declared_python():
    oldest = oldest_python()
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8"))
    (job,) = workflow["jobs"].values()
    assert "%d.%d" % oldest in job["strategy"]["matrix"]["python-version"]
    paths = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest)
