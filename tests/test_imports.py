"""No module imports a name it never uses.

A plain `ast` scan, since no linter is a dependency: every name an
import statement binds must appear as a name somewhere else in the
module.  `__future__` imports and the package's re-exports in
`__init__.py` are exempt.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src/clusterbmc", "tests", "demos")


def _sources():
    for d in DIRS:
        for name in sorted(os.listdir(os.path.join(ROOT, d))):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(d, name)


def unused_imports(source: str) -> list:
    """Names bound by import statements in `source` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    src = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from a import b, c as d\n"
        "def f(x: b) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(src) == [(3, "np"), (4, "d")]


def test_no_unused_imports():
    found = {}
    for path in _sources():
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            found[path] = names
    assert found == {}
