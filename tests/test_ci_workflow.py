"""The CI workflow runs what the repository documents: ROADMAP's tier-1
command, on one BLAS thread as ``perfbench`` pins it, under a time limit.
A typo in the workflow then fails here, not on the first push."""

import ast
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

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
