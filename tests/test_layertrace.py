"""The benchmark's layer tracer names functions and methods padlab still has.

`bench/layertrace.py` wraps each entry of its LAYERS table at run time, so a
renamed or deleted padlab name would only show up as a crash of a traced
benchmark run.  The table is read from the source, never executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _layers() -> list[tuple[str, str, str]]:
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/layertrace.py defines no LAYERS table")


LAYERS = _layers()


@pytest.mark.parametrize("prefix,module,path", LAYERS, ids=[prefix for prefix, _, _ in LAYERS])
def test_traced_layer_resolves(prefix, module, path):
    owner = importlib.import_module(module)
    assert owner.__name__.startswith("padlab")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
