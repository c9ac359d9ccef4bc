"""Hygiene of the package sources, read as syntax trees."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "transemi"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that nothing in
    it reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def private_imports(source: str) -> list[str]:
    """`_`-prefixed names that `source` imports from a module of the
    package, by a relative import or one from `transemi`, at any depth."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").partition(".")[0] == "transemi")
            for alias in node.names if alias.name.startswith("_")]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from functools import reduce\nfrom operator import and_, index\n"
              "def f(x: np.ndarray) -> int:\n    return index(x)\n")
    assert unused_imports(source) == ["os", "reduce", "and_"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_imports_are_found():
    source = ("from .closure import _kernel, check\nfrom transemi.bitsets import _CELLS\n"
              "from os import _exit\ndef f():\n    from . import _private\n")
    assert private_imports(source) == ["_kernel", "_CELLS", "_private"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(path.read_text()) == []
