import gc
import itertools
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time

import pytest

import ref_satcore
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


class QueueCheckedSession(ref_satcore.SolverSession):
    """Asserts at every decision of the reference search that the queue
    picks what a linear scan over all variables picks, the unassigned
    variable of highest stamp, and that the queue links every variable
    once, in increasing stamp order."""

    decisions = 0

    def _pick_branch(self):
        best = 0
        for v in range(1, self.num_vars + 1):
            if (self._vals[v << 1] == ref_satcore._UNASSIGNED
                    and (not best or self._stamp[v] > self._stamp[best])):
                best = v
        order = []
        v = self._next[0]
        while v:
            assert self._next[self._prev[v]] == v
            order.append(v)
            assert len(order) <= self.num_vars
            v = self._next[v]
        assert self._prev[0] == (order[-1] if order else 0)
        assert sorted(order) == list(range(1, self.num_vars + 1))
        stamps = [self._stamp[v] for v in order]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
        picked = super()._pick_branch()
        assert picked == best
        self.decisions += 1
        return picked


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
        s = QueueCheckedSession(seed=trial)
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


def test_decisions_match_linear_scan_with_conflicts():
    # random 3-CNFs at the satisfiability threshold, so that decisions
    # follow bumped stamps; the second solve rides on learned clauses
    conflicts = 0
    for trial in range(20):
        rng = random.Random(7000 + trial)
        nv = 40
        clauses = [
            [rng.randint(1, nv) * rng.choice([1, -1]) for _ in range(3)]
            for _ in range(170)
        ]
        s = QueueCheckedSession(seed=trial)
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
    assert [ref_satcore._luby(i) for i in range(1, 16)] == [
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


def test_clause_cap_stops_the_search(monkeypatch):
    # php(4) holds 45 clauses, so a cap of 60 leaves room for 15 learned
    # ones and stops a search that needs more conflicts
    _, clauses = php(4)
    runs = []
    for module in (satcore, ref_satcore):
        s = module.SolverSession(seed=1)
        for c in clauses:
            s.add_clause(c)
        monkeypatch.setattr(satcore, "CLAUSE_CAP", 60)
        monkeypatch.setattr(ref_satcore, "CLAUSE_CAP", 60)
        capped = s.solve()
        monkeypatch.undo()
        assert capped.status == satcore.UNKNOWN
        # the session goes on from level 0: a unit added now is kept
        s.add_clause([-1])
        after = s.solve()
        assert after.status == satcore.UNSAT
        runs.append([(r.status, r.conflicts_this_call,
                      r.propagations_this_call) for r in (capped, after)])
    assert runs[0] == runs[1]
    uncapped = satcore.new_solver(seed=1)
    for c in clauses:
        uncapped.add_clause(c)
    assert uncapped.solve().conflicts_this_call > runs[0][0][1]


def run_script(session, seed, batches=True):
    """(status, conflicts, propagations, model, num_vars) of each solve of
    a seeded incremental script: rounds of clauses of 1-6 literals, with
    duplicate and complementary literals, level-0 units, now and then an
    empty clause or new variables, each round solved under 0-4
    assumptions with a conflict budget of None, 0, 1, a few, a negative
    one or one past 64 bits, and now and then a past deadline.

    With `batches`, a second generator sends most clauses in batches of
    random size through `add_clauses`, empty batches included, and the
    rest one at a time through `add_clause`; without, every clause goes
    through `add_clause`.  The script's clauses, variables and solves are
    the same either way."""
    rng = random.Random(seed)
    group = random.Random(seed + (1 << 32))   # |-seed| would repeat rng
    batch = []

    def flush():
        if batch or group.random() < 0.05:
            session.add_clauses(batch)
        batch.clear()

    nv = (rng.randint(20, 90) if rng.random() < 0.85
          else rng.randint(130, 170))
    out = []
    for rnd in range(rng.randint(1, 5)):
        # the first round brings the clause/variable ratio close to 3-SAT's
        # threshold, later ones add a few clauses each
        for _ in range(int(nv * rng.uniform(2.5, 4.3)) if rnd == 0
                       else rng.randint(0, nv // 2)):
            draw = rng.random()
            if draw < 0.0005:
                clause = []
            elif draw < 0.01:
                flush()
                session.add_clauses([], session.num_vars + rng.randint(0, 2))
                continue
            else:
                width = rng.choice((1, 1, 2) if draw < 0.015 else
                                   (2,) + (3,) * 12 + (4, 5, 6))
                clause = [rng.randint(1, nv) * rng.choice((1, -1))
                          for _ in range(width)]
                if rng.random() < 0.1:
                    clause.append(rng.choice(clause) * rng.choice((1, -1)))
            if batches and group.random() < 0.9:
                batch += [len(clause), *clause]
                if group.random() < 0.1:
                    flush()
            else:
                flush()
                session.add_clause(clause)
        flush()
        assumptions = [rng.randint(1, nv + 2) * rng.choice((1, -1))
                       for _ in range(rng.randint(0, 4))]
        budget = rng.choice((None, None, 0, 1, rng.randint(2, 40), -3,
                             1 << 64))
        deadline = (time.perf_counter() - 1 if rng.random() < 0.1 else None)
        r = session.solve(assumptions, conflict_budget=budget,
                          deadline=deadline)
        out.append((r.status, r.conflicts_this_call,
                    r.propagations_this_call, r.model, session.num_vars))
    return out


def kernel_against_reference():
    """Statuses and conflict counts of 320 seeded scripts, each run on the
    kernel and on `ref_satcore` with batches, which must agree, and on
    the kernel one clause at a time, which must not change a result: a
    batch creates its variables before it adds its clauses, and that
    order must leave the search as it is."""
    statuses, conflicts = set(), []
    for trial in range(320):
        want = run_script(ref_satcore.SolverSession(seed=trial), 20000 + trial)
        got = run_script(satcore.SolverSession(seed=trial), 20000 + trial)
        assert got == want, trial
        singly = run_script(satcore.SolverSession(seed=trial), 20000 + trial,
                            batches=False)
        assert singly == got, trial
        statuses.update(row[0] for row in got)
        conflicts += [row[1] for row in got]
    return statuses, conflicts


def test_kernel_seeds_as_python_random():
    # the kernel's generator is seeded with the 32-bit words of |seed|, as
    # random.Random is: seeds of one to four words must place each new
    # variable as the reference does, and seeds that differ only above the
    # lowest word must search differently
    runs = {}
    for seed in (0, 1, -7, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3,
                 2**64 + 5, 10**30):
        want = run_script(ref_satcore.SolverSession(seed=seed), 20007)
        assert run_script(satcore.SolverSession(seed=seed), 20007) == want
        runs[seed] = want
    assert len({repr(r) for r in runs.values()}) > 5
    assert runs[2**32] != runs[0] and runs[2**32 + 1] != runs[1]


def test_kernel_decides_as_the_reference():
    statuses, conflicts = kernel_against_reference()
    assert statuses == {satcore.SAT, satcore.UNSAT, satcore.UNKNOWN}
    # some calls search past the first restarts, at 64 and 128 conflicts
    assert sum(conflicts) > 3000
    assert sum(c > 128 for c in conflicts) >= 3


class BumpSizes(ref_satcore.SolverSession):
    """The reference search, keeping the number of variables each
    conflict's analysis bumps."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.bumped = []

    def _bump(self, vs):
        self.bumped.append(len(vs))
        super()._bump(vs)


def test_scripts_sort_bumped_variables_both_ways():
    # the kernel's bump() sorts up to BUMP_INSERTION_MAX variables by
    # insertion and more with qsort; the differential scripts must reach
    # both, which only the reference can count
    with open(os.path.join(os.path.dirname(satcore.__file__), "_cdcl.c")) as fh:
        cutoff = int(re.search(r"#define BUMP_INSERTION_MAX (\d+)",
                               fh.read()).group(1))
    sizes = []
    for trial in range(320):
        session = BumpSizes(seed=trial)
        run_script(session, 20000 + trial)
        sizes += session.bumped
        if max(sizes) > cutoff and min(sizes) <= cutoff:
            break
    assert min(sizes) <= cutoff < max(sizes)


def test_malformed_batches_add_nothing():
    # the kernel and the reference reject the same batches, and a rejected
    # batch adds no variable and no clause, even when it names a new
    # variable before its fault
    bad = [
        ([2, 9, 0], ValueError, "0 is not a literal"),
        ([1, 9, 3, 9, -2, -(1 << 31)], ValueError,
         r"-2\*\*31 is not a literal"),
        ([1, 9, -1, 2], ValueError, "length is negative"),
        ([1, 9, 3, 9, 2], ValueError, "past the end"),
        ([1, 9, 1], ValueError, "past the end"),
        ([2, 9, 1 << 31], OverflowError, None),
        ([1, 9, "1"], TypeError, None),
    ]
    for module in (satcore, ref_satcore):
        s = module.SolverSession(seed=0)
        s.add_clauses([2, 1, -2, 0])
        before = (s.num_vars, s.clauses)
        for records, error, message in bad:
            with pytest.raises(error, match=message):
                s.add_clauses(records)
            assert (s.num_vars, s.clauses) == before, records
        for assumptions, error, message in ([9, 0], ValueError, "0 is not"), (
                [9, 1 << 31], OverflowError, None):
            with pytest.raises(error, match=message):
                s.solve(assumptions)
        # the session made no variable 3 or 9: it makes 3 now
        s.add_clauses([], 3)
        assert s.num_vars == 3
        # an empty clause in a batch is the empty clause
        assert s.solve().status == satcore.UNSAT
        assert s.clauses == [[1, -2], []]


# a child that loads the sanitized kernel and runs the differential
# scripts, the malformed batches, the clause-cap and past-deadline tests,
# the unfold differential, whose designs include one with no inputs, bads
# folded to constants and a cone of latches only, then the seeding test
# with each generator state held by the session's constructor alone, as
# when two threads' first calls of the cache race and it keeps one state
SANITIZED_CHECKS = """
import sys
import pytest
import test_netlist
import test_satcore as t
assert t.satcore._lib._name == sys.argv[1], t.satcore._lib._name
t.kernel_against_reference()
t.test_malformed_batches_add_nothing()
with pytest.MonkeyPatch.context() as mp:
    t.test_clause_cap_stops_the_search(mp)
t.test_past_deadline_stops_before_search()
test_netlist.unfold_against_reference()
t.satcore._seeded = t.satcore._seeded.__wrapped__
t.test_kernel_seeds_as_python_random()
"""


def test_kernel_runs_clean_under_sanitizers(tmp_path):
    # _cdcl.c built with AddressSanitizer and UBSan into a copied package,
    # under the name `satcore._build` looks for, so that importing the copy
    # loads it; the child preloads both runtimes, as Python has neither
    pkg = tmp_path / "src" / "clusterbmc"
    shutil.copytree(os.path.dirname(satcore.__file__), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    lib = pkg / "__pycache__" / os.path.basename(satcore._lib._name)
    lib.parent.mkdir()
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    runtimes = [subprocess.run(cc + [f"-print-file-name={name}"],
                               capture_output=True, text=True).stdout.strip()
                for name in ("libasan.so", "libubsan.so")]
    build = subprocess.run(
        cc + ["-O1", "-g", "-fno-omit-frame-pointer",
              "-fsanitize=address,undefined",
              "-fno-sanitize-recover=undefined", "-shared", "-fPIC",
              str(pkg / "_cdcl.c"), "-o", str(lib)],
        capture_output=True, text=True)
    if build.returncode != 0 or not all(map(os.path.isabs, runtimes)):
        pytest.skip(f"{cc[0]} cannot link the sanitizers: {build.stderr}")
    tests = os.path.dirname(os.path.abspath(__file__))
    bench = os.path.join(os.path.dirname(tests), "bench")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(tmp_path / "src"), tests,
                                           bench]),
               LD_PRELOAD=":".join(runtimes), ASAN_OPTIONS="detect_leaks=0",
               # Python's own allocator would hide an overrun of a buffer
               # the kernel writes, such as an unfolder's state
               PYTHONMALLOC="malloc")
    child = subprocess.run(
        [sys.executable, "-c", SANITIZED_CHECKS, str(lib)],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-4000:]
    assert "Sanitizer" not in child.stderr, child.stderr[-4000:]
    assert "runtime error" not in child.stderr, child.stderr[-4000:]


def test_kernel_compiles_without_warnings(tmp_path):
    # the interpreter's compiler finds nothing to warn of in the kernel at
    # -Wall -Wextra; a compiler that cannot build it at all skips the test
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    source = os.path.join(os.path.dirname(satcore.__file__), "_cdcl.c")

    def build(*flags):
        return subprocess.run(
            cc + [*flags, "-O2", "-shared", "-fPIC", source, "-o",
                  str(tmp_path / "kernel.so")],
            capture_output=True, text=True, timeout=300)

    try:
        plain = build()
    except OSError as e:
        pytest.skip(f"cannot run {cc[0]}: {e}")
    if plain.returncode != 0:
        pytest.skip(f"{cc[0]} cannot build the kernel: {plain.stderr}")
    strict = build("-Wall", "-Wextra", "-Werror")
    assert strict.returncode == 0, strict.stderr


def _rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def test_sessions_free_their_kernel_state():
    rng = random.Random(3)
    clauses = [[rng.randint(1, 300) * rng.choice((1, -1)) for _ in range(3)]
               for _ in range(1000)]

    def one_session():
        s = satcore.new_solver()
        for c in clauses:
            s.add_clause(c)
        s.solve(conflict_budget=20)

    for _ in range(100):
        one_session()
    gc.collect()
    before = _rss()
    for _ in range(2000):
        one_session()
    gc.collect()
    assert _rss() - before < 8 << 20


def test_kernel_builds_once_into_pycache(tmp_path):
    # a fresh copy of the package builds its kernel on first import, into
    # its own __pycache__ and nowhere else; the next import reuses it
    pkg = tmp_path / "src" / "clusterbmc"
    shutil.copytree(os.path.dirname(satcore.__file__), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"),
               TMPDIR=str(tmpdir))

    def load(env):
        return subprocess.run(
            [sys.executable, "-c",
             "from clusterbmc import satcore; print(satcore._lib._name)"],
            env=env, capture_output=True, text=True, timeout=300)

    first = load(env)
    assert first.returncode == 0, first.stderr
    lib = first.stdout.strip()
    assert os.path.dirname(lib) == str(pkg / "__pycache__")
    assert os.listdir(tmpdir) == []
    assert [n for n in os.listdir(pkg / "__pycache__")
            if not n.endswith(".pyc")] == [os.path.basename(lib)]
    mtime = os.stat(lib).st_mtime_ns
    second = load(env)
    assert second.returncode == 0, second.stderr
    assert second.stdout.strip() == lib
    assert os.stat(lib).st_mtime_ns == mtime

    def libraries():
        return [n for n in os.listdir(pkg / "__pycache__")
                if not n.endswith(".pyc")]

    # an edited source builds a new library, which replaces the old one
    with open(pkg / "_cdcl.c", "a") as fh:
        fh.write("/* edited */\n")
    edited = load(env)
    assert edited.returncode == 0, edited.stderr
    lib = edited.stdout.strip()
    assert lib != first.stdout.strip()
    assert libraries() == [os.path.basename(lib)]

    # a build that fails says why, in the compiler's words, and removes
    # no library
    with open(pkg / "_cdcl.c", "a") as fh:
        fh.write("#error this kernel does not build\n")
    fails = load(env)
    assert fails.returncode != 0
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    assert f"ImportError: the C compiler {compiler!r} failed" in fails.stderr
    assert "this kernel does not build" in fails.stderr
    assert os.listdir(tmpdir) == []
    assert libraries() == [os.path.basename(lib)]

    # with no compiler to run, a copy with no library for its source
    # cannot be imported
    empty = tmp_path / "bin"
    empty.mkdir()
    no_cc = load(dict(env, PATH=str(empty)))
    assert no_cc.returncode != 0
    assert (f"ImportError: cannot build {pkg / '_cdcl.c'} with the C "
            f"compiler {compiler!r}") in no_cc.stderr
    assert libraries() == [os.path.basename(lib)]


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
    (SAT, 0, 109, 0x12046006001918c0c0000827400),
    (SAT, 7, 223, 0x82a1a21441a0dde5d08876ebc64),
    (SAT, 126, 3420, 0x15b55cc9349efeecae1285eb3c22),
    (SAT, 0, 106, 0x600489000008440c40000d500),
    (SAT, 2, 133, 0x2684990580e2012dc39434406),
    (UNSAT, 31, 957, None),
    (SAT, 0, 106, 0x500928000830161020f00889894),
    (SAT, 1, 157, 0x505124478c60733d637790c5ffe),
    (UNSAT, 50, 1223, None),
    (SAT, 0, 104, 0x1001000002004020008008000),
    (SAT, 2, 125, 0x18308088991f4000fd08227019c),
    (SAT, 25, 801, 0x273b599170388c16a617301b76),
    (SAT, 0, 92, 0x140b00000860f6e22400c88),
    (SAT, 6, 197, 0x48a64cc1dc574f7216ca2e),
    (UNSAT, 46, 1022, None),
    (SAT, 0, 106, 0x404080240414220001891400006),
    (SAT, 1, 130, 0x4642cc240154036a4dd108a1896),
    (UNSAT, 16, 382, None),
    (SAT, 0, 101, 0x680003400a024000368004),
    (SAT, 0, 101, 0x4083804c3d196628eb43aa006),
    (UNSAT, 7, 166, None),
    (SAT, 0, 101, 0x200100000c812000802484),
    (SAT, 2, 130, 0x2078b7ba15c2d431caa200),
    (UNSAT, 156, 3758, None),
]


def test_search_is_pinned():
    # a change meant to leave the search alone (how propagation visits
    # watches, how analysis reads reasons, how the decision queue is kept)
    # keeps these tuples; one that changes the search must re-record them
    # with `python tests/test_satcore.py`
    assert pinned_solves() == PINNED


def _pinned_literal(solves) -> str:
    """`solves` written as the source of PINNED."""
    names = {SAT: "SAT", UNSAT: "UNSAT"}
    rows = [f"    ({names[st]}, {c}, {p}, {'None' if m is None else hex(m)}),"
            for st, c, p, m in solves]
    return "\n".join(["PINNED = ["] + rows + ["]"])


if __name__ == "__main__":
    print(_pinned_literal(pinned_solves()))
