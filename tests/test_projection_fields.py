"""Every field of ``mstep.Projection`` is read somewhere in the package.

The projection holds what every evaluation of a fit reads but none
changes; a field that no code reads repeats a fact another field holds.
The package is read with ``ast``: a read is an attribute loaded off a
name or an attribute called ``projection``, which is how every module
holds the fit's projection.
"""

import ast
import dataclasses
from pathlib import Path

from factorem.mstep import Projection

SRC = Path(__file__).resolve().parents[1] / "src" / "factorem"


def projection_reads() -> set[str]:
    reads = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value
                if getattr(owner, "id", getattr(owner, "attr", None)) == "projection":
                    reads.add(node.attr)
    return reads


def test_every_projection_field_is_read():
    fields = {field.name for field in dataclasses.fields(Projection)}
    assert {"g", "floor"} <= projection_reads()
    assert not fields - projection_reads(), sorted(fields - projection_reads())
