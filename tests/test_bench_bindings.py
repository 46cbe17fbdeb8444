"""Every function the traced bench wraps must exist in ``geotax``.

The bench skips a layer whose target is gone with only a warning, so a
rename would pass the suite while that layer's metrics silently read 0.
This reads ``bench/layers.py`` as text and resolves each ``Layer`` target
the way the bench does, without importing the bench.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def layer_targets() -> list[tuple[str, str, str]]:
    tree = ast.parse(LAYERS_PY.read_text(encoding="utf-8"))
    return [
        tuple(ast.literal_eval(arg) for arg in node.args[:3])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Layer"
    ]


def test_bench_layers_are_found():
    assert len(layer_targets()) >= 20


@pytest.mark.parametrize("name, module, attr", layer_targets())
def test_bench_layer_target_resolves_in_geotax(name, module, attr):
    assert module.startswith("geotax.")
    *path, leaf = attr.split(".")
    owner = importlib.import_module(module)
    for part in path:
        owner = getattr(owner, part)
    # defined on the owner itself, as the bench looks it up
    assert callable(vars(owner).get(leaf)), f"{name}: {module}.{attr} not found"
