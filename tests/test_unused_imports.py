"""No module of the package or the tests imports a name it never uses.

No linter is a dependency, so this scans the source with ``ast``: a name an
import binds must appear as a name somewhere in the module, or in its
``__all__``.
"""

import ast
from pathlib import Path

import pytest

import lexmap

PACKAGE = Path(lexmap.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module that the module never uses."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_scan_flags_only_unused_names():
    source = (
        "import os\nimport os.path\nimport numpy as np\nfrom a import b as c, d\n"
        "from .e import f\nfrom __future__ import annotations\n"
        "__all__ = ['f']\nprint(d, np.pi)\n"
    )
    assert _unused_imports(source) == ["os", "os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
