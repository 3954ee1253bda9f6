"""The data layer imports nothing from the layers built on it.

``embeddings``, ``neighborhoods``, ``lexicon``, ``seeds`` and ``synth`` load,
generate and pair data. ``mapper``, ``analysis``, ``translate`` and ``cli``
fit, evaluate and serve maps on that data, so an import the other way round
would tie the data layer to the experiment driver.
"""

import ast
from pathlib import Path

import pytest

import lexmap

PACKAGE = Path(lexmap.__file__).parent
DATA_LAYER = ("embeddings", "neighborhoods", "lexicon", "seeds", "synth")
UPPER_LAYERS = {"mapper", "analysis", "translate", "cli"}


def _lexmap_imports(module: str) -> set[str]:
    """Names of the lexmap modules that a module of the package imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            absolute = node.level == 0
            if absolute and node.module.split(".")[0] != "lexmap":
                continue
            path = (node.module or "").split(".")[1 if absolute else 0:]
            if path and path[0]:
                names.add(path[0])  # from .x import y, from lexmap.x import y
            else:
                names.update(alias.name for alias in node.names)  # from . import x
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "lexmap" and len(parts) > 1:
                    names.add(parts[1])
    return names


def test_import_scan_sees_the_cli_imports():
    assert {"analysis", "synth", "embeddings", "mapper", "translate"} <= _lexmap_imports("cli")


@pytest.mark.parametrize("module", DATA_LAYER)
def test_data_layer_imports_no_upper_layer(module):
    assert _lexmap_imports(module) & UPPER_LAYERS == set()
