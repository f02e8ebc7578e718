"""The README's library snippets run as documented, and what it names in
the code, the CLI, its own headings and a fit's output files exists."""

import argparse
import collections
import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import re
import typing
from pathlib import Path

import numpy as np

import factorem
import factorem.io
from factorem import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs_at_small_n(capsys):
    source = quickstart_source()
    assert "n=400" in source
    namespace = {}
    exec(compile(source.replace("n=400", "n=60"), str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.moments.m.shape == (60, result.dims.p + 1)
    np.testing.assert_array_equal(namespace["scores"], result.moments.m[:, 0])
    assert namespace["sq_corr"].shape == (result.dims.p + 1,)
    assert np.isfinite(namespace["average"])
    assert capsys.readouterr().out


def test_dataset_from_arrays_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "### Build a `Dataset` from arrays", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    data, result = namespace["data"], namespace["result"]
    assert data.p == 2 and data.dimensions().q == (5, 4, 6)
    assert result.converged and result.theta.c.shape == (2,)
    assert capsys.readouterr().out.startswith("(5, 4, 6) (2, 2, 2)\n")


# The README's references to the code, flags, anchors and output files.

PACKAGE_MODULES = {info.name for info in pkgutil.iter_modules(factorem.__path__)}
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def readme_prose() -> str:
    """README without its fenced blocks, whose code the tests above run."""
    return re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)


def section(title: str) -> str:
    """The text under the heading ``title`` up to the next heading of its
    level or above; a ``#`` line inside a fenced block is no heading."""
    lines = README.read_text(encoding="utf-8").splitlines()
    level, start = title.index(" "), lines.index(title) + 1
    fenced = False
    for end in range(start, len(lines)):
        fenced ^= lines[end].startswith("```")
        heading = re.match(r"#+ ", lines[end])
        if heading and not fenced and heading.end() - 1 <= level:
            break
    else:
        end = len(lines)
    return "\n".join(lines[start:end])


def code_references() -> list[str]:
    """Every backticked dotted name rooted at ``fm``, ``factorem``, a
    package module, a top-level name or ``result`` (a ``FitResult``); a
    trailing ``()`` is dropped."""
    roots = {"fm", "factorem", "result"} | PACKAGE_MODULES | set(factorem.__all__)
    spans = (span.removesuffix("()") for span in re.findall(r"`([^`\n]+)`", readme_prose()))
    return [span for span in spans
            if DOTTED.fullmatch(span) and span.split(".", 1)[0] in roots]


def resolve(reference: str):
    """Follow a dotted name through modules, attributes, dataclass fields
    (as their annotated type) and properties (as their return type)."""
    root, *parts = reference.split(".")
    if root in ("fm", "factorem"):
        obj = factorem
    elif root == "result":
        obj = factorem.FitResult
    elif root in PACKAGE_MODULES:
        obj = importlib.import_module(f"factorem.{root}")
    else:
        obj = getattr(factorem, root)
    for part in parts:
        if inspect.ismodule(obj) and not hasattr(obj, part):
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            obj = typing.get_type_hints(obj)[part]
        else:
            attr = inspect.getattr_static(obj, part)
            if isinstance(attr, (property, functools.cached_property)):
                getter = attr.fget if isinstance(attr, property) else attr.func
                obj = typing.get_type_hints(getter).get("return", object)
            else:
                obj = getattr(obj, part)
    return obj


def test_every_code_reference_resolves():
    references = code_references()
    assert {"em.ORDER", "estep.GRAM_LIMIT", "mstep.Projection.floor", "factorem.io",
            "estep.EStepSummary.loglik"} <= set(references)
    broken = []
    for reference in references:
        try:
            resolve(reference)
        except (AttributeError, ImportError):
            broken.append(reference)
    assert not broken, broken


def test_the_stated_surface_size_is_the_top_level():
    stated = [int(n) for n in re.findall(r"exposes (\d+) names", readme_prose())]
    assert stated == [len(factorem.__all__)]


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def options(parser: argparse.ArgumentParser) -> set[str]:
    return {flag for action in parser._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


def test_cli_flags_are_the_parsers():
    text = section("## CLI")
    commands = subparsers()
    every = set().union(*map(options, commands.values()))
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert documented <= every, sorted(documented - every)
    assert every <= documented, sorted(every - documented)
    # each example command uses only its own subcommand's flags
    block = re.search(r"```bash\n(.*?)```", text, re.S).group(1).replace("\\\n", " ")
    examples = [line.split() for line in block.splitlines() if line.startswith("factorem ")]
    assert {words[1] for words in examples} == set(commands)
    for words in examples:
        used = {w for w in words if w.startswith("--")}
        assert used <= options(commands[words[1]]), (words[1], sorted(used))


def github_slug(heading: str) -> str:
    """GitHub's anchor for a heading: lower case, punctuation but hyphens
    and underscores dropped, spaces made hyphens."""
    return re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")


def test_every_anchor_link_names_a_heading():
    prose = readme_prose()
    slugs = collections.Counter()
    anchors = set()
    for heading in re.findall(r"^#+ (.+)$", prose, re.M):
        slug = github_slug(heading)
        anchors.add(slug if not slugs[slug] else f"{slug}-{slugs[slug]}")
        slugs[slug] += 1
    links = re.findall(r"\]\(#([^)]+)\)", prose)
    assert links
    assert set(links) <= anchors, sorted(set(links) - anchors)


def test_fit_outputs_table_is_what_write_fit_writes(tmp_path):
    dims = factorem.Dimensions(n=40, p=2, q_y=3, q_m=(3, 3), r_t=2, r_m=(2, 2))
    data, _, _ = factorem.simulate_dataset(factorem.SimConfig(dims=dims, seed=0))
    result = factorem.fit(data, dims, factorem.EMConfig(epsilon=1e-2))
    factorem.io.write_fit(result, tmp_path)
    table = dict(re.findall(r"^\| `([^`]+)` \| (.*) \|$", section("### Fit outputs"), re.M))
    # the section's second table lists Theta's fields, not files
    files = {name for name in table if "." in name}
    assert files == {path.name for path in tmp_path.iterdir()}
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    named = set(re.findall(r"`([^`]+)`", table["report.json"]))
    assert set(report) <= named, sorted(set(report) - named)
