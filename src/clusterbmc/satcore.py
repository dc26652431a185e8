"""Incremental CDCL SAT solver with assumptions and conflict accounting.

First-UIP clause learning, two-watched literals, a VMTF (variable
move-to-front) decision queue, Luby restarts, phase saving.  No
preprocessing and no clause deletion: learned clauses persist for the
lifetime of the session, which is exactly the effect shared-session
multi-property BMC relies on.

The search lives in C, in `_cdcl.c` next to this file; `SolverSession`
is a ctypes wrapper over it.  `tests/ref_satcore.py` is the same search in
Python, the reference the tests hold the C search to, decision for
decision.  On first import the C file is compiled with the interpreter's
C compiler (`sysconfig`'s CC) into this package's `__pycache__/`, once per
source and interpreter; a missing compiler or a failed build is an
ImportError.

Literals are nonzero signed ints in the DIMACS convention at the
interface.  Inside, DIMACS literal d is stored as 2*|d| + (d < 0), so the
variable of `lit` is `lit >> 1` and its negation is `lit ^ 1`.  A clause
keeps its two watched literals at positions 0 and 1.

Decisions take the unassigned variable of highest bump stamp (Biere &
Froehlich, "Evaluating CDCL Variable Scoring Schemes", SAT 2015).  The
variables form a doubly linked list in increasing stamp order, closed into
a ring through variable 0, whose stamp is -inf.  Each conflict moves the
variables its analysis marks to the back of the list, oldest stamp first,
and gives each a new, highest stamp.  The search caches a variable after
which every variable is assigned: backtracking moves it to each variable
it unassigns whose stamp is higher, and a decision walks back from it to
the first unassigned variable.  A new variable joins the back of the list
(decided first) or the front by a draw from the seeded generator, which
is how the seed steers the search.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import random
import sys
import weakref
from array import array
from dataclasses import dataclass

SAT = "satisfiable"
UNSAT = "unsatisfiable"
UNKNOWN = "budget-exhausted"

# Hard cap on the clause database (original + learned).  Exceeding it makes
# solve() report budget exhaustion instead of thrashing.
CLAUSE_CAP = 400_000

# the kernel's statuses, by its return code
_STATUS = (SAT, UNSAT, UNKNOWN)
# records of a new variable at the back / front of the decision queue
_BACK, _FRONT = -1, -2
_INT64_MAX = (1 << 63) - 1
_NO_DEADLINE = float("inf")


@dataclass
class SolveResult:
    status: str
    model: list | None  # model[v] is the bool value of variable v (1-based)
    conflicts_this_call: int
    propagations_this_call: int


def _build() -> str:
    """Path of the compiled kernel, compiling `_cdcl.c` if this source and
    interpreter have no library yet.  The compiler writes to a name of its
    own in `__pycache__/`, and the result is renamed into place, so an
    importer never loads a half-written file.  A build that succeeds
    removes this interpreter's libraries of other sources."""
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_cdcl.c")
    with open(source, "rb") as fh:
        code = fh.read()
    tag = sys.implementation.cache_tag
    digest = hashlib.sha256(code + tag.encode()).hexdigest()[:16]
    cache = os.path.join(here, "__pycache__")
    lib = os.path.join(cache, f"_cdcl.{tag}.{digest}.so")
    if os.path.exists(lib):
        return lib
    # needed only to build: a process that finds the library loads none
    import glob
    import shlex
    import subprocess
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    tmp = f"{lib}.{os.getpid()}.tmp"
    try:
        os.makedirs(cache, exist_ok=True)
        # the compiler's own temporary files go to __pycache__ too
        proc = subprocess.run(
            cc + ["-O2", "-shared", "-fPIC", "-pipe", source, "-o", tmp],
            capture_output=True, text=True, env=dict(os.environ, TMPDIR=cache))
        if proc.returncode == 0:
            os.replace(tmp, lib)
    except OSError as e:
        raise ImportError(f"cannot build {source} with the C compiler "
                          f"{cc[0]!r}: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if proc.returncode != 0:
        raise ImportError(f"the C compiler {cc[0]!r} failed to build "
                          f"{source}:\n{proc.stderr}")
    for old in glob.glob(os.path.join(cache, f"_cdcl.{tag}.*.so")):
        if old != lib:
            try:
                os.remove(old)
            except FileNotFoundError:  # another importer removed it
                pass
    return lib


def _load() -> ctypes.CDLL:
    lib = ctypes.CDLL(_build())
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    for name, restype, argtypes in (
            ("cdcl_new", p, ()),
            ("cdcl_free", None, (p,)),
            ("cdcl_solve", ctypes.c_int,
             (p, p, i64, i64, i64, ctypes.c_double, i64, p)),
            # the learned clauses, which the tests' RUP checker reads
            ("cdcl_num_learned", i64, (p,)),
            ("cdcl_learned", ctypes.c_int32, (p, i64, p))):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


_lib = _load()


class SolverSession:
    """One incremental solving session; single-threaded, not shareable.

    New variables and clauses wait in `_pending` and reach the kernel with
    the next `solve`, in the order they were added.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self.num_vars = 0
        self.clauses: list[list[int]] = []   # original clauses, as added
        # records: _BACK or _FRONT for a new variable, or a clause's length
        # followed by its literals
        self._pending = array("i")
        self._out = (ctypes.c_int64 * 3)()
        self._out_addr = ctypes.addressof(self._out)
        self._handle = _lib.cdcl_new()
        if not self._handle:
            raise MemoryError("cannot allocate a solver session")
        weakref.finalize(self, _lib.cdcl_free, self._handle)

    def ensure_var(self, v: int):
        if v > self.num_vars:
            # the seed's one say in the search: a new variable goes to the
            # back of the queue (decided first) or to the front
            draw = self._rng.random
            self._pending.extend([_BACK if draw() < 0.5 else _FRONT
                                  for _ in range(v - self.num_vars)])
            self.num_vars = v

    def add_clause(self, lits) -> None:
        """Adds a clause at level 0, where the kernel drops duplicate and
        level-0-false literals, and the whole clause if it is a tautology
        or already satisfied."""
        lits = list(lits)
        self._ensure_vars(lits)
        # one fromlist call: a literal that is no int leaves no half record
        self._pending.fromlist([len(lits), *lits])
        self.clauses.append(lits)

    def solve(
        self,
        assumptions=(),
        conflict_budget: int | None = None,
        deadline: float | None = None,
    ) -> SolveResult:
        """Solve the current clause set under the given assumptions.

        `conflict_budget` bounds the number of conflicts this call may spend,
        exactly: with 0 it stops at its first conflict.  `deadline` is an
        absolute time.perf_counter() value.  Exhaustion is reported as
        status, never raised.  Every return leaves decision level 0, so a
        clause added between calls is added at level 0.
        """
        assumptions = list(assumptions)
        self._ensure_vars(assumptions)
        pending = self._pending
        pending.fromlist(assumptions)
        addr, size = pending.buffer_info()
        budget = -1 if conflict_budget is None else min(
            max(conflict_budget, 0), _INT64_MAX)
        code = _lib.cdcl_solve(
            self._handle, addr, size, len(assumptions), budget,
            _NO_DEADLINE if deadline is None else deadline, CLAUSE_CAP,
            self._out_addr)
        del pending[:]
        if code < 0:
            raise MemoryError("the solver session ran out of memory")
        out = self._out
        model = None
        if code == 0:
            model = [None]
            model += map(bool, ctypes.string_at(out[2], self.num_vars))
        return SolveResult(_STATUS[code], model, out[0], out[1])

    def _ensure_vars(self, lits: list):
        """Creates the variables of DIMACS `lits`."""
        if lits:
            top, bottom = max(lits), min(lits)
            if 0 in lits:
                raise ValueError("0 is not a literal")
            if -bottom > top:
                top = -bottom
            if top > self.num_vars:
                self.ensure_var(top)


def new_solver(seed: int = 0) -> SolverSession:
    return SolverSession(seed)
