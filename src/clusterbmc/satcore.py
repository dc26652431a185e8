"""Incremental CDCL SAT solver with assumptions and conflict accounting.

First-UIP clause learning, two-watched literals, a VMTF (variable
move-to-front) decision queue, Luby restarts, phase saving.  No
preprocessing and no clause deletion: learned clauses persist for the
lifetime of the session, which is exactly the effect shared-session
multi-property BMC relies on.

The search lives in C, in `_cdcl.c` next to this file; `SolverSession`
is a ctypes wrapper over it.  `tests/ref_satcore.py` is the same search in
Python, the reference the tests hold the C search to, decision for
decision.  The same library holds the frame unfolder that
`netlist.UnfoldBuilder` wraps, and this module builds and loads it for
both.  On first import the C file is compiled with the interpreter's C
compiler (`sysconfig`'s CC) into this package's `__pycache__/`, once per
source and interpreter; a missing compiler or a failed build is an
ImportError.

Clauses go in by batch: `add_clauses` takes a flat int sequence of
records, each a clause's length followed by its literals, converts it to
one `array('i')` and has the kernel's `cdcl_scan` check it whole, so a
batch costs a few Python calls however many clauses it holds.
`add_clause` is a batch of one.  The session keeps the records it was
given, and `clauses` decodes them on each read.

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
(decided first) or the front by a draw from the session's generator,
which is how the seed steers the search.  The kernel holds a copy of
Python's Mersenne Twister, seeded and drawn as `random.Random(seed)` with
`random() < 0.5` would be, so the reference search, which uses
`random.Random`, makes the same draws.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
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
_INT64_MAX = (1 << 63) - 1
# the errors of cdcl_scan, by its return code -1, -2, ...
_MALFORMED = ("0 is not a literal", "-2**31 is not a literal",
              "a clause length is negative",
              "a clause runs past the end of its batch")
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
            ("cdcl_seed", None, (p, ctypes.c_int32, p)),
            ("cdcl_new", p, (p,)),
            ("cdcl_free", None, (p,)),
            ("cdcl_scan", ctypes.c_int32, (p, i64)),
            ("cdcl_solve", ctypes.c_int,
             (p, p, i64, i64, i64, ctypes.c_double, i64, p)),
            # the learned clauses, which the tests' RUP checker reads
            ("cdcl_num_learned", i64, (p,)),
            ("cdcl_learned", ctypes.c_int32, (p, i64, p)),
            # the unfolder of netlist.UnfoldBuilder
            ("unfold_size", i64, (p,)),
            ("unfold_init", ctypes.c_int32, (p, p, p, i64, p)),
            ("unfold_frame", ctypes.c_int32, (p, p))):
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
        self.num_vars = 0
        # the original clauses' records, as added; `clauses` decodes them
        self._records = array("i")
        # records: -k for k new variables, or a clause's length followed by
        # its literals
        self._pending = array("i")
        self._out = (ctypes.c_int64 * 3)()
        self._out_addr = ctypes.addressof(self._out)
        # held here while cdcl_new copies it: the cache need not hold the
        # state it returns (racing first calls of two threads keep one)
        state = _seeded(seed)
        self._handle = _lib.cdcl_new(state.buffer_info()[0])
        if not self._handle:
            raise MemoryError("cannot allocate a solver session")
        weakref.finalize(self, _lib.cdcl_free, self._handle)

    @property
    def clauses(self) -> list[list[int]]:
        """The original clauses in the order they were added, each as its
        list of DIMACS literals; decoded anew on each read."""
        records = self._records.tolist()
        out, i = [], 0
        while i < len(records):
            end = i + 1 + records[i]
            out.append(records[i + 1:end])
            i = end
        return out

    def ensure_var(self, v: int):
        if v > self.num_vars:
            # the kernel places each new variable by a seeded draw
            self._pending.append(self.num_vars - v)
            self.num_vars = v

    def add_clause(self, lits) -> None:
        """Adds one clause, as `add_clauses` does."""
        lits = list(lits)
        self.add_clauses([len(lits), *lits])

    def add_clauses(self, records) -> None:
        """Adds a batch of clauses at level 0.  `records` is a flat int
        sequence in which each clause is its length followed by its DIMACS
        literals.  The kernel checks the whole batch first: a malformed one
        raises ValueError, and a value that is no 32-bit int TypeError or
        OverflowError, before any clause is added.  Then the batch's new
        variables are created, and the kernel drops each clause's duplicate
        and level-0-false literals, and the whole clause if it is a
        tautology or already satisfied."""
        batch = array("i", records)
        self.ensure_var(_top(batch))
        self._pending += batch
        self._records += batch

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
        # checked as the one record of a batch
        self.ensure_var(_top(array("i", [len(assumptions), *assumptions])))
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


@functools.lru_cache(maxsize=64)
def _seeded(seed: int) -> array:
    """The generator state random.Random(seed) starts from, as the
    kernel's cdcl_seed writes it: seeding is most of what a new session
    costs, and runs share a few seeds."""
    seed = abs(seed)
    # random.Random seeds with the 32-bit words of |seed|, lowest first
    key = array("I", [seed >> shift & 0xFFFFFFFF for shift in
                      range(0, max(seed.bit_length(), 1), 32)])
    state = array("I", [0]) * 624   # the twister's MT_N words
    _lib.cdcl_seed(*key.buffer_info(), state.buffer_info()[0])
    return state


def _top(batch: array) -> int:
    """The highest variable of a batch of clause records, which the kernel
    checks; ValueError if the batch is malformed."""
    top = _lib.cdcl_scan(*batch.buffer_info())
    if top < 0:
        raise ValueError(_MALFORMED[-1 - top])
    return top


def new_solver(seed: int = 0) -> SolverSession:
    return SolverSession(seed)
