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
        session_conflicts = 0
        for assumptions in ([], [rng.randint(1, nv) * rng.choice([1, -1])]):
            res = s.solve(assumptions)
            if res.status == satcore.SAT:
                for c in clauses + [[a] for a in assumptions]:
                    assert any(res.model[abs(l)] == (l > 0) for l in c)
            session_conflicts += res.conflicts_this_call
        conflicts += session_conflicts
        if act_inc > 1e99 and session_conflicts > 1:
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


def test_second_solve_needs_no_more_conflicts():
    s = satcore.new_solver()
    _, clauses = php(4)
    for c in clauses:
        s.add_clause(c)
    r1 = s.solve()
    r2 = s.solve()
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


def pinned_solves():
    """(status, conflicts, propagations, model) of every solve of a fixed
    script: seeded CNFs with clauses of 2 to 6 literals, solved three times
    per session under 0-4 assumptions, with clauses added before each
    solve.  A model is the bit mask of its true variables."""
    out = []
    for trial in range(8):
        rng = random.Random(4100 + trial)
        nv = rng.randint(90, 110)
        s = satcore.new_solver(seed=trial)
        for _ in range(3):
            for _ in range(int(nv * 1.55)):
                width = rng.choice((2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 5, 6))
                vs = rng.sample(range(1, nv + 1), width)
                s.add_clause([v * rng.choice((1, -1)) for v in vs])
            assumptions = [v * rng.choice((1, -1))
                           for v in rng.sample(range(1, nv + 1), rng.randint(0, 4))]
            r = s.solve(assumptions)
            model = None if r.model is None else sum(
                1 << v for v in range(1, nv + 1) if r.model[v])
            out.append((r.status, r.conflicts_this_call,
                        r.propagations_this_call, model))
    return out


SAT, UNSAT = satcore.SAT, satcore.UNSAT
PINNED = [
    (SAT, 1, 134, 0x5200400161212a102500120100c),
    (SAT, 1, 111, 0x52e46101eb25ee11e520d2230c0),
    (SAT, 55, 1582, 0x44e1edc1bdb7c3114786db80582),
    (SAT, 0, 106, 0x400908040121900584002c602),
    (SAT, 2, 144, 0x215059c11eaf61860d010624752),
    (UNSAT, 43, 1330, None),
    (SAT, 0, 106, 0x20804dc585888a0001800d24900),
    (SAT, 4, 171, 0x269aacc395c80a80e2bec9e9e20),
    (UNSAT, 63, 1626, None),
    (SAT, 0, 104, 0x2000800000000200008092),
    (SAT, 0, 104, 0x1142e6192002082b042b2c1849a),
    (SAT, 40, 1120, 0x273b599370388c56a617301b76),
    (SAT, 1, 139, 0x6200110a74002c044100c40),
    (SAT, 1, 94, 0x14323bccc55ad2d974104e50),
    (UNSAT, 37, 841, None),
    (SAT, 0, 106, 0x3120240800010942402aa441180),
    (SAT, 0, 106, 0x791ea8b91244000348a816ed986),
    (UNSAT, 6, 131, None),
    (SAT, 0, 101, 0x11004800034100000820520800),
    (SAT, 1, 116, 0x11342a084341226700334c6140),
    (UNSAT, 8, 219, None),
    (SAT, 0, 101, 0x6000000004800400403044),
    (SAT, 1, 119, 0x847c5025925421181353238e),
    (UNSAT, 183, 4307, None),
]


def test_search_is_pinned():
    # a change meant to leave the search alone (how propagation visits
    # watches, how analysis reads reasons, the decision heap) keeps these
    # tuples; one that changes the search must re-record them
    assert pinned_solves() == PINNED
