"""Incremental CDCL SAT solver with assumptions and conflict accounting.

First-UIP clause learning, two-watched literals, VSIDS activities with a
heap-ordered decision queue, Luby restarts, phase saving.  No
preprocessing and no clause deletion: learned clauses persist for the
lifetime of the session, which is exactly the effect shared-session
multi-property BMC relies on.

Literals are nonzero signed ints in the DIMACS convention at the
interface.  Inside, DIMACS literal d is stored as 2*|d| + (d < 0), so the
variable of `lit` is `lit >> 1` and its negation is `lit ^ 1`; the value
table and the watch lists are plain lists indexed by that literal.

Decisions take the unassigned variable of highest activity, lowest index
on ties, from a heap of (-activity, variable) entries.  The heap is lazy:
an entry whose variable is assigned or whose activity has since grown is
dropped when it surfaces, and `_backtrack` pushes each variable it
unassigns unless the heap still holds it at its current activity.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass

SAT = "satisfiable"
UNSAT = "unsatisfiable"
UNKNOWN = "budget-exhausted"

_UNASSIGNED = -1

# Hard cap on the clause database (original + learned).  Exceeding it makes
# solve() report budget exhaustion instead of thrashing.
CLAUSE_CAP = 400_000


@dataclass
class SolveResult:
    status: str
    model: list | None  # model[v] is the bool value of variable v (1-based)
    conflicts_this_call: int
    propagations_this_call: int


def _luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SolverSession:
    """One incremental solving session; single-threaded, not shareable."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self.num_vars = 0
        self.clauses: list[list[int]] = []   # original clauses, as added
        self._db: list[list[int]] = []       # original + learned, internal literals
        # per internal literal (indices 0 and 1 unused)
        self._vals: list[int] = [_UNASSIGNED, _UNASSIGNED]  # 1 true, 0 false
        self._watches: list[list[int]] = [[], []]
        # per variable (index 0 unused)
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [1]   # sign bit of the last value; 1 is false
        self._seen: list[bool] = [False]
        self._heap: list[tuple[float, int]] = []   # (-activity, variable)
        self._heaped: list[float] = [-1.0]   # newest entry's activity, or -1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._act_inc = 1.0
        self._act_decay = 0.95
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
        self._reason.append(-1)
        # Tiny seeded jitter decorrelates tie-breaks between seeds while
        # keeping each seed fully deterministic.
        act = self._rng.random() * 1e-6
        self._activity.append(act)
        self._phase.append(1)
        self._seen.append(False)
        self._heaped.append(act)
        heapq.heappush(self._heap, (-act, v))
        return v

    def ensure_var(self, v: int):
        while self.num_vars < v:
            self.add_var()

    def add_clause(self, lits) -> None:
        lits = list(lits)
        self._ensure_vars(lits)
        self.clauses.append(lits)
        if self._trail_lim:
            self._backtrack(0)
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
        idx = len(self._db)
        self._db.append(out)
        if len(out) == 1:
            self._enqueue(out[0], idx)
        else:
            self._watches[out[0]].append(idx)
            self._watches[out[1]].append(idx)

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
        status, never raised.
        """
        assumptions = list(assumptions)
        self._ensure_vars(assumptions)
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
                if len(self._db) >= CLAUSE_CAP:
                    self._backtrack(0)
                    return SolveResult(UNKNOWN, None, conflicts, propagations)
                self._learn(learned)
                self._act_inc /= self._act_decay
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
                self._enqueue(lit, -1)
                continue

            v = self._pick_branch()
            if not v:
                model = [None] + [val == 1 for val in vals[2::2]]
                self._backtrack(0)
                return SolveResult(SAT, model, conflicts, propagations)
            trail_lim.append(len(trail))
            self._enqueue((v << 1) | self._phase[v], -1)

    def to_dimacs(self) -> str:
        """DIMACS CNF export of the original clause set (diagnostic only)."""
        out = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        out.extend(" ".join(map(str, c)) + " 0" for c in self.clauses)
        return "\n".join(out) + "\n"

    # -- internals ----------------------------------------------------------

    def _ensure_vars(self, lits: list):
        """Creates the variables of DIMACS `lits`."""
        top = 0
        for d in lits:
            if d > top:
                top = d
            elif -d > top:
                top = -d
            elif not d:
                raise ValueError("0 is not a literal")
        if top > self.num_vars:
            self.ensure_var(top)

    def _learn(self, lits: list[int]):
        idx = len(self._db)
        self._db.append(lits)
        if len(lits) > 1:
            self._watches[lits[0]].append(idx)
            self._watches[lits[1]].append(idx)
        self._enqueue(lits[0], idx)

    def _enqueue(self, lit: int, reason: int):
        v = lit >> 1
        self._vals[lit] = 1
        self._vals[lit ^ 1] = 0
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._phase[v] = lit & 1
        self._trail.append(lit)

    def _propagate(self):
        """Unit propagation; returns a conflicting clause index or None."""
        trail = self._trail
        start = head = self._qhead
        db, watches, vals = self._db, self._watches, self._vals
        level, reason, phase = self._level, self._reason, self._phase
        dl = len(self._trail_lim)
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            watch_list = watches[false_lit]
            i = 0
            end = len(watch_list)
            while i < end:
                ci = watch_list[i]
                clause = db[ci]
                # keep the false watch at position 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if vals[first] == 1:
                    i += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if vals[other] != 0:
                        clause[k] = clause[1]
                        clause[1] = other
                        watches[other].append(ci)
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        end -= 1
                        break
                else:
                    if vals[first] == 0:
                        self._propagated += head - start
                        self._qhead = head
                        return ci
                    v = first >> 1
                    vals[first] = 1
                    vals[first ^ 1] = 0
                    level[v] = dl
                    reason[v] = ci
                    phase[v] = first & 1
                    trail.append(first)
                    i += 1
        self._propagated += head - start
        self._qhead = head
        return None

    def _analyze(self, confl: int):
        """First-UIP conflict analysis; returns (learned_clause, bt_level)."""
        db, trail, level, seen = self._db, self._trail, self._level, self._seen
        act, inc = self._activity, self._act_inc
        learned = [0]  # slot for the asserting literal
        counter = 0
        dl = len(self._trail_lim)
        idx = len(trail) - 1
        clause = db[confl]
        start = 0
        while True:
            # a reason clause stores its propagated literal at position 0
            for q in clause[start:]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    a = act[v] + inc
                    act[v] = a
                    if a > 1e100:
                        self._rescale()
                        inc = self._act_inc
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
            clause = db[self._reason[p >> 1]]
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
        return learned, bt

    def _rescale(self):
        act = self._activity
        act[:] = [a * 1e-100 for a in act]
        self._act_inc *= 1e-100
        # every entry is stale now, and the scaling can create new ties
        self._rebuild_heap()

    def _rebuild_heap(self):
        """One entry per unassigned variable, at its current activity."""
        vals, act, heap, heaped = self._vals, self._activity, self._heap, self._heaped
        heap.clear()
        for v in range(1, self.num_vars + 1):
            if vals[v << 1] == _UNASSIGNED:
                heaped[v] = act[v]
                heap.append((-act[v], v))
            else:
                heaped[v] = -1.0
        heapq.heapify(heap)

    def _pick_branch(self) -> int:
        """Unassigned variable of highest activity, lowest index on ties;
        0 when every variable is assigned."""
        heap, vals, act, heaped = self._heap, self._vals, self._activity, self._heaped
        while heap:
            neg_act, v = heapq.heappop(heap)
            if -neg_act == heaped[v]:
                heaped[v] = -1.0
            if vals[v << 1] == _UNASSIGNED and -neg_act == act[v]:
                return v
        return 0

    def _backtrack(self, level: int):
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        target = trail_lim[level]
        trail, vals, act = self._trail, self._vals, self._activity
        heap, heaped, push = self._heap, self._heaped, heapq.heappush
        for i in range(target, len(trail)):
            lit = trail[i]
            vals[lit] = _UNASSIGNED
            vals[lit ^ 1] = _UNASSIGNED
            v = lit >> 1
            a = act[v]
            if heaped[v] != a:
                heaped[v] = a
                push(heap, (-a, v))
        del trail[target:]
        del trail_lim[level:]
        self._qhead = min(self._qhead, target)
        # drop stale entries once they outnumber the variables
        if len(heap) > 2 * self.num_vars:
            self._rebuild_heap()


def new_solver(seed: int = 0) -> SolverSession:
    return SolverSession(seed)
