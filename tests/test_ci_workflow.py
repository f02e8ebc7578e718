"""The CI workflow runs what the repository documents: ROADMAP's tier-1
command, on one BLAS thread as ``perfbench`` pins it, under a time limit,
on every Python the package declares, and once on the oldest Python with
exactly the lower bounds of its dependencies; and it runs the installed
console script that pyproject declares. A typo in the workflow, or
syntax newer than the oldest declared Python, then fails here, not on the
first push."""

import ast
import importlib
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


def tier1_job() -> dict:
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8"))
    (job,) = workflow["jobs"].values()
    return job


def pytest_steps() -> list:
    return [step for step in tier1_job()["steps"] if "pytest" in step.get("run", "")]


def test_the_workflow_runs_the_tier1_command_on_one_blas_thread():
    job = tier1_job()
    tier1, *_ = pytest_steps()
    assert tier1["run"] == tier1_command()
    assert "env" not in tier1 and "if" not in tier1
    threads = perfbench_thread_vars()
    assert threads == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert {name: job["env"].get(name) for name in threads} == threads
    assert isinstance(job["timeout-minutes"], int) and job["timeout-minutes"] > 0


def test_one_job_reruns_the_evaluation_counts_on_two_blas_threads():
    # the tight fits' counts move with the thread count (tests/test_em.py)
    _, rerun = pytest_steps()
    matrix = tier1_job()["strategy"]["matrix"]
    version = re.fullmatch(r"matrix\.python-version == '([\d.]+)'", rerun["if"]).group(1)
    assert version in matrix["python-version"]
    assert [entry for entry in matrix.get("include", ()) if entry["python-version"] == version] == []
    assert rerun["env"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    assert rerun["run"].endswith(" python -m pytest -q tests/test_em.py -k TestEvaluationCounts")


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_every_source_file_parses_on_the_oldest_declared_python():
    oldest = oldest_python()
    versions = tier1_job()["strategy"]["matrix"]["python-version"]
    # every minor version from the oldest declared one through 3.13
    assert versions == ["%d.%d" % (oldest[0], minor)
                        for minor in range(oldest[1], oldest[1] + len(versions))]
    assert "3.13" in versions
    paths = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest)


def declared_floors() -> dict:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    return dict(re.findall(r'"([\w.-]+)>=([\w.]+)"', deps))


def test_one_job_installs_exactly_the_declared_floors_on_the_oldest_python():
    job = tier1_job()
    matrix = job["strategy"]["matrix"]
    (floors,) = [entry for entry in matrix["include"] if "pins" in entry]
    assert floors["python-version"] == "%d.%d" % oldest_python()
    # a value the matrix does not list makes it a job of its own, not the 3.10 one
    assert floors["deps"] not in matrix["deps"]
    pins = dict(pin.split("==") for pin in floors["pins"].split())
    assert pins == declared_floors() == {"numpy": "1.24", "orjson": "3.8", "scipy": "1.10"}
    assert [step["run"] for step in job["steps"] if step.get("name") == "Install"] == [
        "python -m pip install -e '.[test]' ${{ matrix.pins }}"]


def console_script() -> tuple[str, str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1]
    return re.search(r'^([\w-]+) = "([\w.]+:\w+)"', scripts, re.M).groups()


def test_one_step_runs_the_installed_console_script():
    # the tests call cli.main or ``python -m factorem.cli``; only this step
    # runs the entry point pip installs
    name, target = console_script()
    module, function = target.split(":")
    assert callable(getattr(importlib.import_module(module), function))
    steps = tier1_job()["steps"]
    (script,) = [step for step in steps
                 if re.search(rf"^{re.escape(name)} ", step.get("run", ""), re.M)]
    names = [step.get("name") for step in steps]
    assert names.index(script["name"]) > names.index("Install")
    commands = [line.split()[:2] for line in script["run"].splitlines()]
    assert commands == [[name, "--help"], [name, "simulate"], [name, "fit"]]
    assert "$RUNNER_TEMP" in script["run"] and "pytest" not in script["run"]
