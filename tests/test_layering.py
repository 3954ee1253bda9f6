"""The data layer imports nothing from the layers built on it.

``formats``, ``embeddings``, ``neighborhoods``, ``lexicon``, ``seeds`` and
``synth`` read, write, generate and pair data. ``mapper``, ``analysis``,
``translate`` and ``cli`` fit, evaluate and serve maps on that data, so an
import the other way round would tie the data layer to the experiment
driver. ``formats``, which encodes and decodes every file, imports no lexmap
module at all, and no module imports another's ``_``-prefixed names.
"""

import ast
from pathlib import Path

import pytest

import lexmap

PACKAGE = Path(lexmap.__file__).parent
DATA_LAYER = ("formats", "embeddings", "neighborhoods", "lexicon", "seeds", "synth")
UPPER_LAYERS = {"mapper", "analysis", "translate", "cli"}


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _source(module: str) -> str:
    return (PACKAGE / f"{module}.py").read_text(encoding="utf-8")


def _lexmap_imports(module: str) -> set[str]:
    """Names of the lexmap modules that a module of the package imports."""
    tree = ast.parse(_source(module))
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


def test_formats_imports_no_lexmap_module():
    assert _lexmap_imports("formats") == set()


def _private_imports(source: str) -> list[str]:
    """The _-prefixed names that package source imports from lexmap modules."""
    return [
        f"{'.' * node.level}{node.module or ''}:{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "lexmap")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_import_scan_sees_relative_and_absolute_imports():
    source = (
        "from __future__ import annotations\nfrom numpy import _core\n"
        "from .formats import read_map, _read_companion\nfrom lexmap.mapper import _INITS\n"
        "from . import _private\n"
    )
    assert _private_imports(source) == [
        ".formats:_read_companion", "lexmap.mapper:_INITS", ".:_private",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_modules(module):
    assert _private_imports(_source(module)) == []
