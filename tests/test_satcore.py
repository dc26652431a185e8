import itertools
import random
import time

import pytest

from clusterbmc import satcore
from oracles import cnf_enumerate


def random_cnf(rng, max_vars=8, max_clauses=25):
    nv = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, 3)
        clause = [
            rng.randint(1, nv) * rng.choice([1, -1]) for _ in range(width)
        ]
        clauses.append(clause)
    return nv, clauses


class ScanCheckedSession(satcore.SolverSession):
    """Asserts at every decision that the heap picks what a linear scan
    over all variables picks: highest activity, lowest index on ties."""

    decisions = 0

    def _pick_branch(self):
        best, best_act = 0, -1.0
        for v in range(1, self.num_vars + 1):
            if self._vals[v << 1] == satcore._UNASSIGNED and self._activity[v] > best_act:
                best, best_act = v, self._activity[v]
        picked = super()._pick_branch()
        assert picked == best
        self.decisions += 1
        return picked

    def solve(self, *args, **kwargs):
        res = super().solve(*args, **kwargs)
        assert len(self._heap) <= 2 * self.num_vars
        return res


def test_vs_enumeration():
    for trial in range(150):
        rng = random.Random(trial)
        nv, clauses = random_cnf(rng)
        s = satcore.new_solver(seed=trial)
        for c in clauses:
            s.add_clause(c)
        res = s.solve()
        assert res.status == cnf_enumerate(nv, clauses)
        if res.status == satcore.SAT:
            for c in clauses:
                assert any(res.model[abs(l)] == (l > 0) for l in c)


def test_assumptions_match_enumeration():
    for trial in range(100):
        rng = random.Random(5000 + trial)
        nv, clauses = random_cnf(rng)
        assumptions = [
            rng.randint(1, nv) * rng.choice([1, -1])
            for _ in range(rng.randint(1, 3))
        ]
        s = satcore.new_solver(seed=trial)
        for c in clauses:
            s.add_clause(c)
        res = s.solve(assumptions)
        assert res.status == cnf_enumerate(nv, clauses, assumptions)


def test_assumptions_do_not_persist():
    s = satcore.new_solver()
    s.add_clause([1, 2])
    assert s.solve([-1]).status == satcore.SAT
    assert s.solve([-2]).status == satcore.SAT
    assert s.solve([-1, -2]).status == satcore.UNSAT
    # the session is still satisfiable afterwards
    assert s.solve().status == satcore.SAT


def test_decisions_match_linear_scan():
    # the CNFs of test_vs_enumeration, added in two halves, the first half
    # solved under assumptions
    decisions = 0
    for trial in range(150):
        rng = random.Random(trial)
        nv, clauses = random_cnf(rng)
        assumptions = [
            rng.randint(1, nv) * rng.choice([1, -1])
            for _ in range(rng.randint(0, 2))
        ]
        s = ScanCheckedSession(seed=trial)
        cut = len(clauses) // 2
        for c in clauses[:cut]:
            s.add_clause(c)
        res = s.solve(assumptions)
        assert res.status == cnf_enumerate(nv, clauses[:cut], assumptions)
        for c in clauses[cut:]:
            s.add_clause(c)
        assert s.solve().status == cnf_enumerate(nv, clauses)
        decisions += s.decisions
    assert decisions > 150


@pytest.mark.parametrize("act_inc", [1.0, 0.97e100])
def test_decisions_match_linear_scan_with_conflicts(act_inc):
    # random 3-CNFs at the satisfiability threshold, so that decisions
    # follow bumped activities; the second solve rides on learned clauses.
    # From 0.97e100 the bumps of the second conflict pass 1e100 and every
    # activity is rescaled.
    conflicts = 0
    for trial in range(20):
        rng = random.Random(7000 + trial)
        nv = 40
        clauses = [
            [rng.randint(1, nv) * rng.choice([1, -1]) for _ in range(3)]
            for _ in range(170)
        ]
        s = ScanCheckedSession(seed=trial)
        s._act_inc = act_inc
        for c in clauses:
            s.add_clause(c)
        for assumptions in ([], [rng.randint(1, nv) * rng.choice([1, -1])]):
            res = s.solve(assumptions)
            if res.status == satcore.SAT:
                for c in clauses + [[a] for a in assumptions]:
                    assert any(res.model[abs(l)] == (l > 0) for l in c)
            conflicts += res.conflicts_this_call
        if act_inc > 1e99 and s.conflict_total > 1:
            assert max(s._activity) < 1e99   # the rescale happened
    assert conflicts > 300


def test_incremental_adds():
    for trial in range(40):
        rng = random.Random(9000 + trial)
        nv, clauses = random_cnf(rng, max_vars=6, max_clauses=18)
        s = satcore.new_solver(seed=trial)
        cut = len(clauses) // 2
        for c in clauses[:cut]:
            s.add_clause(c)
        s.solve()
        for c in clauses[cut:]:
            s.add_clause(c)
        assert s.solve().status == cnf_enumerate(nv, clauses)


def php(holes):
    """Pigeonhole CNF: holes+1 pigeons into `holes` holes; unsatisfiable."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def test_pigeonhole_needs_conflicts():
    s = satcore.new_solver()
    _, clauses = php(4)
    for c in clauses:
        s.add_clause(c)
    res = s.solve()
    assert res.status == satcore.UNSAT
    assert res.conflicts_this_call > 0
    assert s.conflict_total == res.conflicts_this_call


def test_conflict_budget_exhaustion():
    s = satcore.new_solver()
    _, clauses = php(6)
    for c in clauses:
        s.add_clause(c)
    res = s.solve(conflict_budget=5)
    assert res.status == satcore.UNKNOWN
    assert res.conflicts_this_call == 5


def test_zero_conflict_budget_counts_no_conflict():
    s = satcore.new_solver()
    _, clauses = php(4)
    for c in clauses:
        s.add_clause(c)
    res = s.solve(conflict_budget=0)
    assert res.status == satcore.UNKNOWN
    assert res.conflicts_this_call == 0
    # the session is intact afterwards
    assert s.solve().status == satcore.UNSAT


def test_past_deadline_stops_before_search():
    s = satcore.new_solver()
    _, clauses = php(4)
    for c in clauses:
        s.add_clause(c)
    res = s.solve(deadline=time.perf_counter() - 1)
    assert res.status == satcore.UNKNOWN
    assert res.conflicts_this_call == 0
    # the session is intact afterwards
    assert s.solve().status == satcore.UNSAT

    rng = random.Random(31)
    for _ in range(100):
        nv, clauses = random_cnf(rng)
        s = satcore.new_solver()
        for c in clauses:
            s.add_clause(c)
        want = cnf_enumerate(nv, clauses)
        res = s.solve(deadline=time.perf_counter() - 1)
        assert res.conflicts_this_call == 0
        # top-level propagation may still refute the clauses outright
        assert res.status == satcore.UNKNOWN or (
            res.status == satcore.UNSAT and want == "unsatisfiable")
        res = s.solve()
        assert res.status == (satcore.SAT if want == "satisfiable"
                              else satcore.UNSAT)


def test_conflict_total_accumulates():
    s = satcore.new_solver()
    _, clauses = php(4)
    for c in clauses:
        s.add_clause(c)
    r1 = s.solve()
    r2 = s.solve()
    assert s.conflict_total == r1.conflicts_this_call + r2.conflicts_this_call
    # the second call rides on learned clauses
    assert r2.conflicts_this_call <= r1.conflicts_this_call


def test_luby_prefix():
    assert [satcore._luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8
    ]


def test_empty_and_tautological_clauses():
    s = satcore.new_solver()
    s.add_clause([1, -1])  # tautology, dropped
    assert s.solve().status == satcore.SAT
    s.add_clause([2])
    s.add_clause([-2])
    assert s.solve().status == satcore.UNSAT


def test_seed_determinism():
    _, clauses = php(4)
    runs = []
    for _ in range(2):
        s = satcore.new_solver(seed=3)
        for c in clauses:
            s.add_clause(c)
        runs.append(s.solve().conflicts_this_call)
    assert runs[0] == runs[1]


def test_zero_is_not_a_literal():
    s = satcore.new_solver()
    with pytest.raises(ValueError):
        s.add_clause([1, 0])
    with pytest.raises(ValueError):
        s.solve([0])


def test_dimacs_export():
    s = satcore.new_solver()
    s.add_clause([1, -2])
    s.add_clause([2, 3])
    text = s.to_dimacs()
    assert text.splitlines()[0] == "p cnf 3 2"
    assert "1 -2 0" in text
