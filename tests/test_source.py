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


def unread_private_names(source: str) -> list[str]:
    """`_`-prefixed functions, classes and constants defined at the top
    level of `source` that no other top-level statement of it reads. A
    private name cannot be imported across the package's modules, so one
    that its own module never reads is dead; a read inside the name's own
    definition, as in recursion, does not count."""
    tree = ast.parse(source)
    defined = []
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((i, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(i, t.id) for t in targets if isinstance(t, ast.Name)]
    reads = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Load)} for node in tree.body]
    return [name for i, name in defined
            if name.startswith("_") and not name.endswith("__")
            and not any(name in r for j, r in enumerate(reads) if j != i)]


def private_attribute_reads(source: str) -> list[str]:
    """Reads of `_`-prefixed, non-dunder attributes in `source` of
    anything but `self` or `cls`, as written: what a module reaches for
    inside another object instead of going through its public names."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]


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


def test_unread_private_names_are_found():
    source = ("__all__ = ['f']\n_LIMIT: int = 3\n_USED = 2\nclass _Unused:\n    pass\n"
              "def _self_only(n):\n    return _self_only(n - 1) if n else _USED\n"
              "def _helper():\n    return _LIMIT\ndef f():\n    return _helper()\n")
    assert unread_private_names(source) == ["_Unused", "_self_only"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def test_private_attribute_reads_are_found():
    source = ("class C:\n    def f(self, other):\n        self._a = other._b\n"
              "        return cls._c, self.__dict__, other.__class__, other.cache._memo\n"
              "def g(obj):\n    obj._d = 1\n    return obj._e(), obj.__len__()\n")
    assert private_attribute_reads(source) == ["other._b", "other.cache._memo", "obj._e"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_attributes_read_across_objects(path):
    assert private_attribute_reads(path.read_text()) == []
