"""Static checks over the package and its tests: no unused imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted([*(ROOT / "src" / "conesym").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
