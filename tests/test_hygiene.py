"""Static checks over the package and its tests: no unused imports, no
private helper, public name or public class member in the package that
only the tests use, no stale `__all__` entry, and no `assert` statement in
the package.  Also checks that the pytest configuration lets a failing
hypothesis test report its example."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "conesym").glob("*.py"))
SCANNED = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def exported_names(tree: ast.Module) -> set[str]:
    """The names a module lists in `__all__`."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {ast.literal_eval(e) for e in node.value.elts}
    return exported


def names_read(tree: ast.AST) -> set[str]:
    """Every name the tree reads, by name, attribute or import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


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
    exported = exported_names(tree)
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
            "from .core import TriangleFacet",
            "__all__ = ['TriangleFacet']",
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


def assert_statements(source: str) -> list[int]:
    """Line numbers of the `assert` statements in the source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_scanner_flags_only_statements():
    source = "\n".join(
        [
            "def f(x):",
            "    assert x, 'message'",
            "    assertion = 'assert x'",
            "    if x:",
            "        assert (x, 1)",
            "    return assertion",
        ]
    )
    assert assert_statements(source) == [2, 5]


def test_no_assert_in_the_package():
    # `python -O` strips assert statements, so no certificate may rest on one.
    found = {
        str(path.relative_to(ROOT)): lines
        for path in PACKAGE
        if (lines := assert_statements(path.read_text()))
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
    read = set().union(*map(names_read, trees))
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


def unreferenced_public_definitions(modules: dict[str, str]) -> list[str]:
    """`module.name` of each module-level function or class in its module's
    `__all__` that no module reads, by name, attribute or import, outside
    the name's own definition.  `__init__` is not scanned, so a re-export
    reads nothing.  A public name that only the tests use belongs in the
    tests, as a `*_reference`."""
    defined = []
    read = set()
    for module, source in modules.items():
        if module == "__init__":
            continue
        tree = ast.parse(source)
        exported = exported_names(tree)
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if own in exported:
                    defined.append((module, own))
            read |= names_read(node) - {own}
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_public_scanner_flags_only_unread_exports():
    modules = {
        "__init__": "from .a import reexported\n__all__ = ['reexported']",
        "a": "\n".join(
            [
                "__all__ = ['CAP', 'used', 'recursive', 'reexported', 'Orphan', 'imported', 'via_attribute']",
                "CAP = 3",
                "def used(x): return x",
                "def recursive(k): return recursive(k - 1) if k else used(CAP)",
                "def reexported(): pass",
                "class Orphan:",
                "    def copy(self): return Orphan()",
                "def imported(): pass",
                "def via_attribute(): pass",
                "def _private(): pass",
            ]
        ),
        "b": "from .a import imported\nfrom . import a\na.via_attribute()\nimported()",
    }
    assert unreferenced_public_definitions(modules) == ["a.recursive", "a.reexported", "a.Orphan"]


# Public names that no package module reads, kept for a reader outside the
# package.  Both move to the tests once the benchmark maps its spans by
# layer (ROADMAP items 3 and 7).
KEPT_FOR_OUTSIDE_READERS = {
    "cones.enumerate_hypermetric_coeffs": "perfbench's tracer wraps it by name (ROLE_NAMES)",
    "autgrp.verify_theorem1": (
        "the README's library example calls it, and it is why `autgrp` binds "
        "`build_complement`, which perfbench's tracing test finds wrapped there"
    ),
}


def test_no_public_name_only_the_tests_use():
    modules = {path.stem: path.read_text() for path in PACKAGE}
    assert sorted(unreferenced_public_definitions(modules)) == sorted(KEPT_FOR_OUTSIDE_READERS)


def unreferenced_members(modules: dict[str, str]) -> list[str]:
    """`module.Class.name` of each public method, property or annotated
    field (a NamedTuple's) of a module-level class that no module reads, by
    name, attribute or import, outside the member's own definition.  A
    member that only the tests use belongs in the tests, as a
    `*_reference`."""
    defined = []
    read = set()
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                read |= names_read(node)
                continue
            read |= set().union(*map(names_read, [*node.bases, *node.keywords, *node.decorator_list]))
            for member in node.body:
                own = None
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    own = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    own = member.target.id
                if own is not None and not own.startswith("_"):
                    defined.append(f"{module}.{node.name}.{own}")
                read |= names_read(member) - {own}
    return [name for name in defined if name.rpartition(".")[2] not in read]


def test_member_scanner_flags_only_unread_members():
    modules = {
        "a": "\n".join(
            [
                "class Box(tuple):",
                "    size = 3",
                "    def used(self): return self.size",
                "    @property",
                "    def recursive(self): return self.recursive",
                "    def _private(self): pass",
                "    def __len__(self): return self.used()",
                "    def orphan(self): pass",
                "class Other:",
                "    def via_function(self): pass",
                "def read(box): return box.via_function()",
                "class Row(NamedTuple):",
                "    width: int",
                "    unread: tuple[int, int] = (0, 0)",
                "    _hidden: int = 0",
                "    def area(self): return self.width * self.width",
                "def measure(row): return row.area()",
            ]
        ),
        "b": "class Empty: pass",
    }
    assert unreferenced_members(modules) == ["a.Box.recursive", "a.Box.orphan", "a.Row.unread"]


def test_no_public_member_only_the_tests_use():
    assert unreferenced_members({path.stem: path.read_text() for path in PACKAGE}) == []


def test_every_exported_name_is_bound():
    # perfbench's tracer looks each `__all__` name up with getattr, so a
    # stale entry would crash a traced run.
    unbound = []
    for path in PACKAGE:
        name = "conesym" if path.stem == "__init__" else f"conesym.{path.stem}"
        module = importlib.import_module(name)
        unbound += [f"{name}.{e}" for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert unbound == []


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    # Under `filterwarnings = ["error"]`, a warning the hypothesis plugin
    # raises while it reports a failure must not become an INTERNALERROR
    # that hides the falsifying example.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in result.stdout
