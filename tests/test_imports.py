"""Imports and names: no module imports a name it never uses, the package
defines no function or class that nothing reads, the C kernel exports no
function that nothing calls, and no command imports scipy or
numpy.random.

Plain `ast` scans, since no linter is a dependency.  Every name an import
statement binds must appear as a name somewhere else in the module;
`__future__` imports and the package's re-exports in `__init__.py` are
exempt.  Every function and class the package defines must be read in
the package, the demos or the benchmark; dunders and the fixture library
`circuits.py` are exempt, and a re-export in `__init__.py` is no read.
"""

import ast
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from clusterbmc.online import _SENTINEL, _min_cost_assignment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src/clusterbmc", "tests", "demos", "bench")


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


# a dotted name in a string constant: `bench/spans.py` patches functions by
# their qualified names
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
PACKAGE = "src/clusterbmc"
FIXTURES = os.path.join(PACKAGE, "circuits.py")


def dead_names(sources: dict) -> list:
    """`(path, line, name)` of each function and class defined in a package
    file of `sources` (path -> text) whose name no file of `sources` reads
    as a name, an attribute or a part of a dotted string."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and DOTTED.match(node.value)):
                read.update(node.value.split("."))
    return sorted(
        (path, node.lineno, node.name)
        for path, tree in trees.items()
        if path.startswith(PACKAGE + os.sep) and path != FIXTURES
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read)


def test_scan_finds_dead_names():
    module = os.path.join(PACKAGE, "a.py")
    sources = {
        module: ("class A:\n"
                 "    def m(self): pass\n"
                 "    def __len__(self): return 0\n"
                 "def f(): pass\n"
                 "def g(): pass\n"
                 "def h(): pass\n"),
        FIXTURES: "def fixture(): pass\n",
        "bench/b.py": "a.f()\nx.m\npatch(a, 'A.h')\n",
    }
    assert dead_names(sources) == [(module, 5, "g")]


def test_no_dead_names():
    sources = {}
    for path in _sources():
        if not path.startswith("tests"):
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                sources[path] = fh.read()
    assert dead_names(sources) == []


# a function definition at the start of a line of C: its return type,
# then its name and an opening parenthesis
C_FUNCTION = re.compile(r"^(static )?[A-Za-z_][\w \t*]*?\b(\w+)\(", re.M)


def kernel_exports(c_source: str) -> list:
    """Names of the functions `c_source` defines without `static`."""
    return [name for static, name in C_FUNCTION.findall(c_source)
            if not static]


def test_scan_finds_kernel_exports():
    c_source = ("/* one(int a)\n * two(int b) */\n"
                "#define MAX(a, b) ((a) > (b) ? (a) : (b))\n"
                "static int helper(int a)\n{\n    return f(a);\n}\n"
                "int32_t *entry(const int32_t *p)\n{\n}\n"
                "Solver *make(void)\n{\n}\n")
    assert kernel_exports(c_source) == ["entry", "make"]


def test_every_kernel_export_is_loaded_and_called():
    # an exported function of `_cdcl.c` is registered, with its types, in
    # `satcore._load` and called through the loaded library somewhere
    with open(os.path.join(ROOT, PACKAGE, "_cdcl.c"), encoding="utf-8") as fh:
        exports = kernel_exports(fh.read())
    with open(os.path.join(ROOT, PACKAGE, "satcore.py"),
              encoding="utf-8") as fh:
        load = next(node for node in ast.walk(ast.parse(fh.read()))
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "_load")
    registered = {node.elts[0].value for node in ast.walk(load)
                  if isinstance(node, ast.Tuple) and node.elts
                  and isinstance(node.elts[0], ast.Constant)}
    called = set()
    for d in (PACKAGE, "tests"):
        for name in os.listdir(os.path.join(ROOT, d)):
            if name.endswith(".py"):
                with open(os.path.join(ROOT, d, name), encoding="utf-8") as fh:
                    called.update(re.findall(r"\b_lib\.(\w+)", fh.read()))
    assert "cdcl_solve" in exports
    assert [e for e in exports if e not in registered] == []
    assert [e for e in exports if e not in called] == []


def test_no_unused_imports():
    found = {}
    for path in _sources():
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            found[path] = names
    assert found == {}


# builds a small database and verifies an unseen design against it, all
# in one fresh interpreter, then prints the scipy and numpy.random modules
# it imported
COMMANDS = """
import sys
from clusterbmc import cli
from clusterbmc.circuits import counter, two_counters
from clusterbmc.netlist import serialize_aiger
designs = {"ctr": counter(3, (5, 6)), "twoctr": two_counters(),
           "unk": two_counters(bits=2, bad_a=2, bad_b=3, name="unk")}
for name, n in designs.items():
    with open(name + ".aag", "w") as fh:
        fh.write(serialize_aiger(n))
common = ["--budget-conflicts", "50", "--max-frames", "4", "--mode", "init"]
assert cli.main(["offline", "ctr.aag", "twoctr.aag", "--out-dir", "db",
                 "--patterns", "64"] + common) == 0
assert cli.main(["verify", "unk.aag", "--db-dir", "db", "--out-dir", "run",
                 "--baseline"] + common) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m.split(".")[:2] == ["numpy", "random"]))
"""


def test_commands_do_not_import_scipy_or_numpy_random(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", COMMANDS], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def test_assignment_equals_scipy_on_ties():
    # scipy's tie-breaking is the reference: on small integer ranges most
    # matrices have several optimal assignments, and the port must pick
    # scipy's.  Rows or columns past the real ones are sentinel padding,
    # as `associate_properties` builds them.
    linear_sum_assignment = pytest.importorskip(
        "scipy.optimize").linear_sum_assignment
    rng = random.Random(2016)
    shapes = set()
    for _ in range(2400):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        shapes.add((nr > nc) - (nr < nc))
        hi = rng.choice([0, 1, 3, 10, 1000])
        size = max(nr, nc)
        cost = [[_SENTINEL] * size for _ in range(size)]
        for i in range(nr):
            cost[i][:nc] = [rng.randint(0, hi) for _ in range(nc)]
        _, cols = linear_sum_assignment(np.array(cost, dtype=float))
        assert _min_cost_assignment(cost) == cols.tolist(), cost
    assert shapes == {-1, 0, 1}
