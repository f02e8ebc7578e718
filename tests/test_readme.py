"""The README's library snippets run as documented."""

import re
from pathlib import Path

import numpy as np

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
