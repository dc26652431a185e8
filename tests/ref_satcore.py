"""The search of `clusterbmc.satcore` in Python: the reference the C
kernel (`src/clusterbmc/_cdcl.c`) is checked against, decision for
decision.  The package runs only the kernel.

The search is the one `clusterbmc.satcore`'s docstring describes.  Here
the value table and the watch lists are plain lists indexed by the
internal literal.  Watch lists and the reason of each propagated
variable hold the clause lists themselves, so propagation and conflict
analysis read a clause without a lookup.  `_search` caches a variable
after which every variable is assigned: `_backtrack` moves it to each
variable it unassigns whose stamp is higher, and `_pick_branch` walks back
from it to the first unassigned variable.
"""

from __future__ import annotations

import random
import time

from clusterbmc.satcore import SAT, UNKNOWN, UNSAT, SolveResult

_UNASSIGNED = -1

# Hard cap on the clause database (original + learned).  Exceeding it makes
# solve() report budget exhaustion instead of thrashing.
CLAUSE_CAP = 400_000
_INT32 = 1 << 31


def _luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


def _scan(records: list) -> int:
    """The highest variable of a batch of clause records, raising what
    `clusterbmc.satcore` raises on a bad batch: OverflowError if a value
    is no 32-bit int, else ValueError with the kernel's `scan` message."""
    if not all(-_INT32 <= x < _INT32 for x in records):
        raise OverflowError("a record value is no 32-bit int")
    top, i = 0, 0
    while i < len(records):
        n = records[i]
        if n < 0:
            raise ValueError("a clause length is negative")
        if n > len(records) - i - 1:
            raise ValueError("a clause runs past the end of its batch")
        for d in records[i + 1:i + 1 + n]:
            if d == 0:
                raise ValueError("0 is not a literal")
            if d == -_INT32:
                raise ValueError("-2**31 is not a literal")
            top = max(top, abs(d))
        i += 1 + n
    return top


class SolverSession:
    """One incremental solving session; single-threaded, not shareable."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self.num_vars = 0
        self.clauses: list[list[int]] = []   # original clauses, as added
        self._num_clauses = 0   # original + learned in the solver, for CLAUSE_CAP
        # per internal literal (indices 0 and 1 unused)
        self._vals: list[int] = [_UNASSIGNED, _UNASSIGNED]  # 1 true, 0 false
        self._watches: list[list[list[int]]] = [[], []]   # clauses watching it
        # per variable (index 0 unused)
        self._level: list[int] = [0]
        self._reason: list = [None]   # the clause that propagated it
        self._phase: list[int] = [1]   # sign bit of the last value; 1 is false
        self._seen: list[bool] = [False]
        # the decision queue, a ring in stamp order whose ends variable 0
        # joins: _next[0] is the first variable and _prev[0] the last
        self._stamp: list[float] = [float("-inf")]
        self._prev: list[int] = [0]
        self._next: list[int] = [0]
        self._stamp_hi = 0   # last stamp given at the back
        self._stamp_lo = 0   # last stamp given at the front
        self._search = 0   # every variable after it is assigned
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._restart_base = 64
        self._has_empty_clause = False
        self._propagated = 0
        self._qhead = 0

    # -- public interface ---------------------------------------------------

    def add_var(self) -> int:
        self.num_vars += 1
        v = self.num_vars
        self._vals += (_UNASSIGNED, _UNASSIGNED)
        self._watches += ([], [])
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(1)
        self._seen.append(False)
        # the seed's one say in the search: a new variable goes to the back
        # of the queue (decided first) or to the front
        prev, nxt, stamp = self._prev, self._next, self._stamp
        if self._rng.random() < 0.5:
            self._stamp_hi += 1
            stamp.append(self._stamp_hi)
            p, n = prev[0], 0
        else:
            self._stamp_lo -= 1
            stamp.append(self._stamp_lo)
            p, n = 0, nxt[0]
        prev.append(p)
        nxt.append(n)
        nxt[p] = v
        prev[n] = v
        if stamp[v] > stamp[self._search]:
            self._search = v
        return v

    def add_clause(self, lits) -> None:
        lits = list(lits)
        self.add_clauses([len(lits), *lits])

    def add_clauses(self, records, num_vars: int = 0) -> None:
        """The kernel's batch: check every record, create variables up to
        `num_vars` or the batch's highest, then add its clauses in order."""
        records = list(records)
        for _ in range(max(num_vars, _scan(records)) - self.num_vars):
            self.add_var()
        i = 0
        while i < len(records):
            end = i + 1 + records[i]
            self._add_clause(records[i + 1:end])
            i = end

    def _add_clause(self, lits: list) -> None:
        self.clauses.append(lits)
        # dedup literals, drop tautologies, strip level-0-false literals
        vals = self._vals
        out = []
        for d in lits:
            lit = d << 1 if d > 0 else (-d << 1) | 1
            val = vals[lit]
            if val == 1:
                return  # satisfied at level 0 for good
            if val == 0 or lit in out:
                continue
            if (lit ^ 1) in out:
                return
            out.append(lit)
        if not out:
            self._has_empty_clause = True
            return
        self._num_clauses += 1
        if len(out) == 1:
            self._enqueue(out[0], out)
        else:
            self._watches[out[0]].append(out)
            self._watches[out[1]].append(out)

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
        self.add_clauses([], _scan([len(assumptions), *assumptions]))
        assumptions = [d << 1 if d > 0 else (-d << 1) | 1 for d in assumptions]
        conflicts = 0
        prop_start = self._propagated
        if self._has_empty_clause:
            return SolveResult(UNSAT, None, 0, 0)

        self._backtrack(0)
        confl = self._propagate()
        if confl is not None:
            return SolveResult(UNSAT, None, 0, self._propagated - prop_start)

        vals, trail, trail_lim = self._vals, self._trail, self._trail_lim
        next_restart = self._restart_base * _luby(1)
        restart_count = 1
        while True:
            confl = self._propagate()
            propagations = self._propagated - prop_start
            if confl is not None:
                if conflict_budget is not None and conflicts >= conflict_budget:
                    # nothing left to spend (a zero budget): stop before
                    # counting this conflict
                    self._backtrack(0)
                    return SolveResult(UNKNOWN, None, conflicts, propagations)
                conflicts += 1
                if len(trail_lim) <= len(assumptions):
                    # conflict implied by the assumptions alone
                    self._backtrack(0)
                    return SolveResult(UNSAT, None, conflicts, propagations)
                learned, bt_level = self._analyze(confl)
                self._backtrack(bt_level)
                if self._num_clauses >= CLAUSE_CAP:
                    self._backtrack(0)
                    return SolveResult(UNKNOWN, None, conflicts, propagations)
                self._learn(learned)
                if conflict_budget is not None and conflicts >= conflict_budget:
                    # budget spent: stop now rather than search on
                    self._backtrack(0)
                    return SolveResult(UNKNOWN, None, conflicts, propagations)
                if conflicts >= next_restart:
                    restart_count += 1
                    next_restart = conflicts + self._restart_base * _luby(restart_count)
                    self._backtrack(0)
                continue

            if deadline is not None and time.perf_counter() > deadline:
                self._backtrack(0)
                return SolveResult(UNKNOWN, None, conflicts, propagations)

            # place pending assumptions first, one decision level each
            if len(trail_lim) < len(assumptions):
                lit = assumptions[len(trail_lim)]
                val = vals[lit]
                if val == 1:
                    trail_lim.append(len(trail))  # dummy level
                    continue
                if val == 0:
                    self._backtrack(0)
                    return SolveResult(UNSAT, None, conflicts, propagations)
                trail_lim.append(len(trail))
                self._enqueue(lit, None)
                continue

            v = self._pick_branch()
            if not v:
                model = [None] + [val == 1 for val in vals[2::2]]
                self._backtrack(0)
                return SolveResult(SAT, model, conflicts, propagations)
            trail_lim.append(len(trail))
            self._enqueue((v << 1) | self._phase[v], None)

    # -- internals ----------------------------------------------------------

    def _learn(self, lits: list[int]):
        self._num_clauses += 1
        if len(lits) > 1:
            self._watches[lits[0]].append(lits)
            self._watches[lits[1]].append(lits)
        self._enqueue(lits[0], lits)

    def _enqueue(self, lit: int, reason: list | None):
        v = lit >> 1
        self._vals[lit] = 1
        self._vals[lit ^ 1] = 0
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._phase[v] = lit & 1
        self._trail.append(lit)

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        trail = self._trail
        start = head = self._qhead
        watches, vals = self._watches, self._vals
        level, reason, phase = self._level, self._reason, self._phase
        dl = len(self._trail_lim)
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            watch_list = watches[false_lit]
            i = 0
            end = len(watch_list)
            while i < end:
                clause = watch_list[i]
                # keep the false watch at position 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if vals[first] == 1:
                    i += 1
                    continue
                # look for a new watch; almost every clause of a frame has
                # three literals, so that case skips the loop
                if len(clause) == 3:
                    k = 0 if vals[clause[2]] == 0 else 2
                else:
                    for k in range(2, len(clause)):
                        if vals[clause[k]] != 0:
                            break
                    else:
                        k = 0
                if k:
                    other = clause[k]
                    clause[k] = false_lit
                    clause[1] = other
                    watches[other].append(clause)
                    watch_list[i] = watch_list[-1]
                    watch_list.pop()
                    end -= 1
                    continue
                if vals[first] == 0:
                    self._propagated += head - start
                    self._qhead = head
                    return clause
                v = first >> 1
                vals[first] = 1
                vals[first ^ 1] = 0
                level[v] = dl
                reason[v] = clause
                phase[v] = first & 1
                trail.append(first)
                i += 1
        self._propagated += head - start
        self._qhead = head
        return None

    def _analyze(self, confl: list[int]):
        """First-UIP conflict analysis; returns (learned_clause, bt_level)."""
        trail, level, seen = self._trail, self._level, self._seen
        bumped = []
        learned = [0]  # slot for the asserting literal
        counter = 0
        dl = len(self._trail_lim)
        idx = len(trail) - 1
        clause = confl
        start = 0
        while True:
            # a reason clause stores its propagated literal at position 0
            for q in clause[start:]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    bumped.append(v)
                    if level[v] >= dl:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                p = trail[idx]
                idx -= 1
                if seen[p >> 1]:
                    break
            seen[p >> 1] = False
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[p >> 1]
            start = 1
        learned[0] = p ^ 1
        for q in learned:
            seen[q >> 1] = False
        if len(learned) == 1:
            bt = 0
        else:
            # second-highest decision level in the learned clause
            max_i = 1
            for i in range(2, len(learned)):
                if level[learned[i] >> 1] > level[learned[max_i] >> 1]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            bt = level[learned[1] >> 1]
        self._bump(bumped)
        return learned, bt

    def _bump(self, vs: list[int]):
        """Moves `vs` to the back of the decision queue, oldest stamp first.
        Each is assigned, so `_search` needs no update."""
        prev, nxt, stamp = self._prev, self._next, self._stamp
        hi = self._stamp_hi
        vs.sort(key=stamp.__getitem__)
        for v in vs:
            p, n = prev[v], nxt[v]
            nxt[p] = n
            prev[n] = p
            last = prev[0]
            nxt[last] = v
            prev[v] = last
            nxt[v] = 0
            prev[0] = v
            hi += 1
            stamp[v] = hi
        self._stamp_hi = hi

    def _pick_branch(self) -> int:
        """Unassigned variable of highest stamp; 0 when every variable is
        assigned (the walk ends at variable 0, whose value slot is never
        set)."""
        vals, prev = self._vals, self._prev
        v = self._search
        while vals[v << 1] != _UNASSIGNED:
            v = prev[v]
        self._search = v
        return v

    def _backtrack(self, level: int):
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        target = trail_lim[level]
        trail, vals, stamp = self._trail, self._vals, self._stamp
        search = self._search
        best = stamp[search]
        for lit in trail[target:]:
            vals[lit] = _UNASSIGNED
            vals[lit ^ 1] = _UNASSIGNED
            v = lit >> 1
            if stamp[v] > best:
                best = stamp[v]
                search = v
        self._search = search
        del trail[target:]
        del trail_lim[level:]
        self._qhead = min(self._qhead, target)


def new_solver(seed: int = 0) -> SolverSession:
    return SolverSession(seed)
