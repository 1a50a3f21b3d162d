"""The demos import only names the package provides.

Running the demos takes half a minute, so the suite does not; parsing
them catches a renamed or removed import without executing anything.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _cendre_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module is not None \
                and (node.module == "cendre" or node.module.startswith("cendre.")):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_exist(path):
    imports = list(_cendre_imports(path))
    assert imports, f"{path.name} imports nothing from cendre"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{path.name}: {module} has no {name}"
