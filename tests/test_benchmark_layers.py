"""Every span target the benchmark traces names a function in the package.

perfbench/run.py wraps each ``(module, attribute)`` of its ``LAYERS``
table; a target that no longer resolves makes that layer read 0 calls
without any error. The table is read with ``ast``, because importing the
script sets the BLAS thread variables for the whole process.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# targets of functions that were removed from the package; the benchmark
# drops them at its next change
STALE = {
    ("factorem.em", "posterior_moments"),
    ("factorem.em", "sufficient_stats"),
    ("factorem.em", "observed_loglik"),
}


def layer_targets() -> dict:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {RUN_PY}")


def test_every_traced_target_resolves():
    layers = layer_targets()
    assert {"io.load_dataset", "io.write_dataset", "em.initialize"} <= set(layers)
    unresolved = {
        (module, attr)
        for targets in layers.values()
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    }
    assert unresolved <= STALE, sorted(unresolved - STALE)
