"""Static checks over the package and its tests: no unused imports, no
private helper in the package that only the tests use, and no stale
`__all__` entry."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "conesym").glob("*.py"))
SCANNED = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads and does not list
    in `__all__`.  `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {ast.literal_eval(e) for e in node.value.elts}
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read and name not in exported
    ]


def test_scanner_flags_only_unread_imports():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import itertools",
            "import os.path",
            "import numpy as np",
            "from math import comb, factorial",
            "from .core import CutVector",
            "__all__ = ['CutVector']",
            "def f(x: np.ndarray):",
            "    return os.path.join(str(comb(4, 2)))",
        ]
    )
    assert unused_imports(source) == ["itertools (line 2)", "factorial (line 5)"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in SCANNED
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def unreferenced_private_definitions(sources: list[str]) -> list[str]:
    """Module-level functions and classes named `_name` that no source
    reads, by name, attribute or import.  A helper that only the tests
    need belongs in the tests, as a `*_reference`."""
    trees = [ast.parse(source) for source in sources]
    defined = {
        node.name: node.lineno
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


def test_private_scanner_flags_only_unread_helpers():
    sources = [
        "\n".join(
            [
                "def _used(x): return x",
                "def _imported(): pass",
                "def _via_attribute(): pass",
                "class _Orphan: pass",
                "def __getattr__(name): pass",
                "def public(): return _used(1)",
            ]
        ),
        "from .a import _imported\nimport a\na._via_attribute()\n_imported()",
    ]
    assert unreferenced_private_definitions(sources) == ["_Orphan (line 4)"]


def test_no_private_helper_only_the_tests_use():
    assert unreferenced_private_definitions([path.read_text() for path in PACKAGE]) == []


def test_every_exported_name_is_bound():
    # perfbench's tracer looks each `__all__` name up with getattr, so a
    # stale entry would crash a traced run.
    unbound = []
    for path in PACKAGE:
        name = "conesym" if path.stem == "__init__" else f"conesym.{path.stem}"
        module = importlib.import_module(name)
        unbound += [f"{name}.{e}" for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert unbound == []
