"""The top-level API is what the README and the benchmark use.

perfbench/run.py and the README's code blocks reach the package as
``fm.<name>``. Each such name must be in ``factorem.__all__``, so a trim
of the top level cannot break them without a failing test. Both are read
with ``ast``: importing the benchmark script sets the BLAS thread
variables for the whole process, and tests/test_readme.py runs the
README snippets.
"""

import ast
import re
from pathlib import Path

import factorem

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "Dimensions", "Dataset", "Theta", "flatten_theta", "SimConfig", "simulate_dataset",
    "EMConfig", "FitResult", "fit", "canonicalize", "ConditionalLaw", "observed_loglik",
    "abs_rel_deviation", "factor_sq_correlation",
    "FactorEMError", "DataError", "NotPositiveDefiniteError", "SingularSystemError",
    "DegeneratePosteriorError", "NonFiniteParameterError",
}


def fm_names(source: str) -> set[str]:
    """Every attribute read directly off the name ``fm``, apart from
    module dunders such as ``fm.__file__``."""
    return {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and not node.attr.startswith("__")
        and isinstance(node.value, ast.Name) and node.value.id == "fm"
    }


def test_readme_and_benchmark_use_only_top_level_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = set().union(*(fm_names(block) for block in
                         re.findall(r"```python\n(.*?)```", readme, re.S)))
    used |= fm_names((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    assert {"fit", "observed_loglik", "simulate_dataset", "Dataset"} <= used
    assert used <= set(factorem.__all__), sorted(used - set(factorem.__all__))


def test_top_level_is_exactly_the_documented_surface():
    assert sorted(factorem.__all__) == sorted(PUBLIC)
    assert all(hasattr(factorem, name) for name in factorem.__all__)
