import importlib
import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from clusterbmc import bmc, netlist, satcore
from clusterbmc.circuits import (
    AigBuilder,
    counter,
    deep_sat_miter,
    duplicated_property_family,
    parity_miter,
    random_netlist,
    shared_coi_pair,
    two_counters,
)
from clusterbmc.netlist import cone_vars, extract_coi
import ref_unfold
from oracles import (CountingSession, RupLog, bfs_reach, free_latches,
                     read_frame_table, rup_failures, xor_rich_netlist)


def cfg_init(**kw):
    base = dict(conflict_budget=20000, max_frames=8, seed=0)
    base.update(kw)
    return bmc.BmcConfig(**base)


# each such test runs on the design and on its free-latch copy, which BMC
# unrolls from every state, as the inductive step of k-induction does
FROM_EVERY_STATE = pytest.mark.parametrize(
    "free", [False, True], ids=["initial-state", "inductive"])


# the C unfolder and its Python reference, for the tests that read an
# encoder's builder
BUILDERS = (netlist.UnfoldBuilder, ref_unfold.UnfoldBuilder)


def start(n, free):
    return free_latches(n) if free else n


def test_counter_sat_depth():
    n = counter(3, (5,))
    v = bmc.check_single(n, 0, cfg_init())
    assert v.status == bmc.SAT and v.depth == 5
    assert bmc.replay_cex(n, 0, v.cex) == bmc.CONFIRMED


def test_inductive_dominates_init():
    # from every state the bad can hold at once
    n = free_latches(counter(3, (5,)))
    v = bmc.check_single(n, 0, cfg_init())
    assert v.status == bmc.SAT and v.depth == 0
    assert bmc.replay_cex(n, 0, v.cex) == bmc.CONFIRMED


def test_undet_depth_is_deepest_refuted_frame():
    n = parity_miter(width=9)
    v = bmc.check_single(n, 0, bmc.BmcConfig(conflict_budget=300, seed=0))
    assert v.status == bmc.UNDET
    assert 0 <= v.depth <= max(s.frame for s in v.per_frame)


@FROM_EVERY_STATE
@pytest.mark.parametrize("width, depth", [(10, 4), (12, 6)])
def test_deep_sat_depths(width, depth, free):
    # each frame before the first bad one is refuted only through a parity
    # miter, so a clause learned unsoundly there can hide the bad frame
    want = {0: 0, 1: 0} if free else {0: depth, 1: depth - 1}
    for seed in range(4):
        n = start(deep_sat_miter(width, depth, seed), free)
        cfg = cfg_init(max_frames=depth + 2, seed=seed)
        runs = [{p: bmc.check_single(n, p, cfg) for p in (0, 1)},
                bmc.check_cluster(n, [0, 1], cfg).per_property]
        for verdicts in runs:
            assert {p: (v.status, v.depth) for p, v in verdicts.items()} == {
                p: (bmc.SAT, d) for p, d in want.items()}
            for p, v in verdicts.items():
                assert bmc.replay_cex(n, p, v.cex) == bmc.CONFIRMED


def test_vs_bfs_oracle_sample():
    for trial in range(60):
        rng = random.Random(400 + trial)
        n = random_netlist(rng)
        want_status, want_depth = bfs_reach(n, 0, 8)
        v = bmc.check_single(n, 0, cfg_init(seed=trial % 3))
        if want_status == "SAT":
            assert (v.status, v.depth) == ("SAT", want_depth)
        else:
            assert v.status == bmc.UNDET


def test_single_vs_bfs_every_property():
    # standalone runs encode the smallest cones: inputs outside a cone get
    # no solver variable and read as False in the counterexample
    sat = undet = outside = 0
    for trial in range(150):
        rng = random.Random(5000 + trial)
        n = random_netlist(rng, num_bads=rng.randint(2, 5))
        for p in range(n.num_properties):
            v = bmc.check_single(n, p, cfg_init(seed=trial % 3))
            want_status, want_depth = bfs_reach(n, p, 8)
            if want_status == "SAT":
                assert (v.status, v.depth) == ("SAT", want_depth)
                assert bmc.replay_cex(n, p, v.cex) == bmc.CONFIRMED
                assert len(v.cex.latch_init) == n.num_latches
                assert all(len(f) == n.num_inputs for f in v.cex.inputs)
                sat += 1
                outside += extract_coi(n, p)[0] < n.num_inputs
            else:
                assert (v.status, v.depth) == (bmc.UNDET, 8)
                undet += 1
    assert sat > 300 and undet > 50 and outside > 200


def test_cluster_vs_bfs_oracle():
    # every member of a shared-session run against its own BFS: clauses
    # learned for one property stay in the session for the next ones
    sat = undet = 0
    for trial in range(200):
        rng = random.Random(900 + trial)
        n = random_netlist(rng, num_bads=rng.randint(2, 4))
        cv = bmc.check_cluster(n, range(n.num_properties), cfg_init(seed=trial % 3))
        for p, v in cv.per_property.items():
            want_status, want_depth = bfs_reach(n, p, 8)
            if want_status == "SAT":
                assert (v.status, v.depth) == ("SAT", want_depth)
                assert bmc.replay_cex(n, p, v.cex) == bmc.CONFIRMED
                sat += 1
            else:
                assert (v.status, v.depth) == (bmc.UNDET, 8)
                undet += 1
    assert sat > 100 and undet > 30


def test_inductive_vs_free_start_bfs_oracle():
    # free latches: frame 0 is every latch valuation, so a bad that holds
    # on any state is hit at once and any other is never hit
    sat = undet = 0
    for trial in range(100):
        rng = random.Random(3000 + trial)
        n = free_latches(random_netlist(rng, num_bads=rng.randint(2, 4)))
        cfg = cfg_init(seed=trial % 3)
        props = range(n.num_properties)
        runs = [{p: bmc.check_single(n, p, cfg) for p in props},
                bmc.check_cluster(n, props, cfg).per_property]
        for verdicts in runs:
            for p, v in verdicts.items():
                want_status, want_depth = bfs_reach(n, p, 8)
                if want_status == "SAT":
                    assert (v.status, v.depth) == ("SAT", want_depth)
                    assert bmc.replay_cex(n, p, v.cex) == bmc.CONFIRMED
                    sat += 1
                else:
                    assert (v.status, v.depth) == (bmc.UNDET, 8)
                    undet += 1
    assert sat > 400 and undet > 40


@FROM_EVERY_STATE
def test_xor_rich_vs_bfs_oracle(free):
    # XOR tops get 4 clauses and their inner gates none; standalone and
    # cluster runs must still agree with explicit-state BFS exactly
    sat = undet = absorbed = declined = 0
    for trial in range(120):
        rng = random.Random(11000 + trial)
        n, tops = xor_rich_netlist(rng, num_bads=rng.randint(2, 4))
        n = start(n, free)
        found = {top for top, _, _ in n.xors()}
        assert not found & {g for _, g1, g2 in n.xors() for g in (g1, g2)}
        absorbed += len(found)
        declined += len(tops - found)
        cfg = cfg_init(seed=trial % 3)
        props = range(n.num_properties)
        runs = [{p: bmc.check_single(n, p, cfg) for p in props},
                bmc.check_cluster(n, props, cfg).per_property]
        for verdicts in runs:
            for p, v in verdicts.items():
                want_status, want_depth = bfs_reach(n, p, 8)
                if want_status == "SAT":
                    assert (v.status, v.depth) == ("SAT", want_depth)
                    assert bmc.replay_cex(n, p, v.cex) == bmc.CONFIRMED
                    sat += 1
                else:
                    assert (v.status, v.depth) == (bmc.UNDET, 8)
                    undet += 1
    assert sat > 600 and undet > 20
    assert absorbed > 300 and declined > 30


class RupSession(RupLog, satcore.SolverSession):
    pass


@FROM_EVERY_STATE
def test_shared_session_clauses_are_rup(monkeypatch, free):
    # each clause learned in a cluster run, and the negated bad of each
    # refuted frame, follows by unit propagation from the clauses its
    # session held before it, whichever property it was learned for
    sessions = []

    def new_solver(seed=0):
        sessions.append(RupSession(seed))
        return sessions[-1]

    monkeypatch.setattr(satcore, "new_solver", new_solver)
    designs = [parity_miter(width=w, variants=2) for w in (4, 5, 6, 7)]
    for trial in range(60):
        rng = random.Random(13000 + trial)
        designs.append(random_netlist(rng, num_bads=rng.randint(2, 4)))
        designs.append(xor_rich_netlist(rng, num_bads=rng.randint(2, 4))[0])
    for trial, n in enumerate(designs):
        bmc.check_cluster(start(n, free), range(n.num_properties),
                          cfg_init(seed=trial % 3))
    # failures first: an unsound solver that learns fewer clauses shows
    # as a RUP failure, not as too few claims
    assert [rup_failures(s.log) for s in sessions] == [[]] * len(sessions)
    claims = [c for s in sessions for claimed, c in s.log if claimed]
    assert len(claims) > 1000


@pytest.mark.parametrize("width", [4, 9])
def test_xor_frame_clause_count(monkeypatch, width):
    # one frame: 4 clauses per XOR top, none per inner gate, 3 per other
    # AND; a return to 3 clauses per AND would give 3 * num_ands.  With
    # free latches no gate folds; from reset the `width` leaves XOR an
    # input with a constant-0 latch, so each folds to its input
    n = parity_miter(width=width, variants=2)
    tops = len(n.xors())
    assert tops == 3 * width - 1
    plain = n.num_ands - 3 * tops
    assert plain == 1   # the variant's AND with a leaf
    for builder in BUILDERS:
        monkeypatch.setattr(bmc, "UnfoldBuilder", builder)
        for design, folded in ((free_latches(n), 0), (n, width)):
            solver = satcore.new_solver(seed=0)
            enc = bmc._Encoder(design, solver, cone_vars(design, [0, 1]))
            before = len(solver.clauses)
            enc.add_frame()
            assert len(solver.clauses) - before == (
                4 * (tops - folded) + 3 * plain)


@pytest.mark.parametrize("design", ["miter", "bank"])
def test_every_gate_variable_is_in_a_clause(monkeypatch, design):
    # an XOR's inner gates get no solver variable: past variable 1 (false),
    # the frame inputs and the frame-0 latches, some clause reads each one
    if design == "miter":
        n = parity_miter(width=9, variants=2)
    else:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "bench"))
        n = importlib.import_module("workloads").bank(random.Random(5), "bank")
    for builder in BUILDERS:
        monkeypatch.setattr(bmc, "UnfoldBuilder", builder)
        solver = RupSession(seed=0)
        enc = bmc._Encoder(n, solver, cone_vars(n, range(n.num_properties)))
        for _ in range(3):
            enc.add_frame()
            free = {1} | {abs(enc.slit(lit)) for lit in [
                *enc.builder.frame_inputs, *enc.builder.frame0_latches]}
            read = {abs(lit) for _, clause in solver.log for lit in clause}
            assert set(range(1, solver.num_vars + 1)) - free <= read


def simulation_sample():
    designs = [parity_miter(width=w, variants=2) for w in (4, 6)]
    for trial in range(25):
        rng = random.Random(15000 + trial)
        designs.append(random_netlist(rng, num_bads=rng.randint(2, 4)))
        designs.append(xor_rich_netlist(rng, num_bads=rng.randint(2, 4))[0])
    return designs


@FROM_EVERY_STATE
def test_encoding_agrees_with_simulation(monkeypatch, free):
    # with every input and free frame-0 latch assumed, the unrolled CNF has
    # one model; each frame's bad literal, folded to a constant or not,
    # must read what simulating the netlist from the same values reads
    frames = 5
    for builder in BUILDERS:
        monkeypatch.setattr(bmc, "UnfoldBuilder", builder)
        folded = kept = 0
        for trial, n in enumerate(simulation_sample()):
            n = start(n, free)
            rng = random.Random(16000 + trial)
            solver = satcore.new_solver(seed=trial % 3)
            enc = bmc._Encoder(n, solver,
                               cone_vars(n, range(n.num_properties)))
            bads = [list(enc.add_frame()) for _ in range(frames)]
            state = [bool(latch.reset) if latch.reset is not None
                     else rng.random() < 0.5 for latch in n.latches]
            inputs = [[rng.random() < 0.5 for _ in range(n.num_inputs)]
                      for _ in range(frames)]
            ni = n.num_inputs
            frame_inputs = [enc.builder.frame_inputs[f * ni:(f + 1) * ni]
                            for f in range(frames)]
            assumptions = []
            for lits, vals in [(enc.builder.frame0_latches, state)] + list(
                    zip(frame_inputs, inputs)):
                assumptions += [enc.slit(lit) if val else -enc.slit(lit)
                                for lit, val in zip(lits, vals) if lit > 1]
            res = solver.solve(assumptions)
            assert res.status == satcore.SAT

            def value(lit):
                return bool(lit) if lit <= 1 else (
                    res.model[(lit >> 1) + 1] ^ (lit & 1))

            for f in range(frames):
                _, state, want = n.eval_frame(state, inputs[f])
                assert [value(lit) for lit in bads[f]] == want, (trial, f)
                folded += sum(lit <= 1 for lit in bads[f])
                kept += sum(lit > 1 for lit in bads[f])
        assert folded > 100 and kept > 400


def test_constant_false_bad_is_refuted_without_a_call(monkeypatch):
    # from reset a counter has no free variable: "counter == 5" folds to
    # false at frames 0-4 and to true at frame 5
    calls = []
    solve = satcore.SolverSession.solve

    def counted(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(satcore.SolverSession, "solve", counted)
    n = counter(3, (5,))
    v = bmc.check_single(n, 0, cfg_init(max_frames=3))
    assert (v.status, v.depth, v.elapsed, calls) == (bmc.UNDET, 3, 4, [])
    assert [(s.conflicts, s.solve_time) for s in v.per_frame] == [(0, 1)] * 4
    v = bmc.check_single(n, 0, cfg_init())
    assert (v.status, v.depth, v.elapsed, len(calls)) == (bmc.SAT, 5, 6, 1)
    assert bmc.replay_cex(n, 0, v.cex) == bmc.CONFIRMED


def test_constant_true_bad_is_sat_at_frame_0():
    # the latch resets to 0, so its negation is a bad that holds at once
    b = AigBuilder(num_inputs=1, num_latches=1)
    b.set_latch(0, b.input_lit(0))
    b.add_bad(b.not_(b.latch_lit(0)))
    b.add_bad(b.and_(b.input_lit(0), b.not_(b.latch_lit(0))))
    n = b.build()
    cv = bmc.check_cluster(n, [0, 1], cfg_init())
    assert {p: (v.status, v.depth) for p, v in cv.per_property.items()} == {
        0: (bmc.SAT, 0), 1: (bmc.SAT, 0)}
    for p, v in cv.per_property.items():
        assert bmc.replay_cex(n, p, v.cex) == bmc.CONFIRMED


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_folded_frames_spend_the_budget_exactly(budget):
    # a folded frame costs 1 unit, so a budget of b refutes exactly the
    # first b frames of a counter; runs that mix folded and solved bads
    # never spend more than their budget
    v = bmc.check_single(counter(3, (5,)), 0,
                         bmc.BmcConfig(conflict_budget=budget))
    assert (v.status, v.depth, v.elapsed) == (bmc.UNDET, budget - 1, budget)
    for trial in range(40):
        rng = random.Random(17000 + trial)
        n = random_netlist(rng, num_bads=rng.randint(2, 4))
        cfg = bmc.BmcConfig(conflict_budget=budget, max_frames=8,
                            seed=trial % 3)
        props = range(n.num_properties)
        for p in props:
            assert bmc.check_single(n, p, cfg).elapsed <= budget
        cv = bmc.check_cluster(n, props, cfg)
        assert cv.total_elapsed <= budget * n.num_properties


@pytest.mark.parametrize("time_budget", [1e-5, 3e-5, 0.01])
def test_time_budget_vs_bfs_oracle(monkeypatch, time_budget):
    # a wall-clock budget may stop a run anywhere, so only soundness is
    # checked: SAT at BFS's first bad frame, UNDET refuted only below it
    calls = []
    solve = satcore.SolverSession.solve

    def counted(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(satcore.SolverSession, "solve", counted)
    for trial in range(40):
        rng = random.Random(7000 + trial)
        n = random_netlist(rng, num_bads=rng.randint(2, 4))
        cfg = bmc.BmcConfig(time_budget=time_budget, max_frames=8,
                            seed=trial % 3)
        props = range(n.num_properties)
        runs = [{p: bmc.check_single(n, p, cfg) for p in props},
                bmc.check_cluster(n, props, cfg).per_property]
        for verdicts in runs:
            for p, v in verdicts.items():
                want_status, want_depth = bfs_reach(n, p, 8)
                if v.status == bmc.SAT:
                    assert (want_status, want_depth) == ("SAT", v.depth)
                    assert bmc.replay_cex(n, p, v.cex) == bmc.CONFIRMED
                else:
                    assert v.status == bmc.UNDET
                    first_bad = want_depth if want_status == "SAT" else 9
                    assert -1 <= v.depth < first_bad
    assert calls   # the budgets reach the solver, not just the unrolling


def test_time_budget_charges_unrolling():
    # each bad reads a latch stuck at its reset 0, so every frame folds to
    # false and no solver call is made: only the run's clock can stop it
    b = AigBuilder(num_inputs=2, num_latches=1)
    b.set_latch(0, b.latch_lit(0))
    b.add_bad(b.and_(b.latch_lit(0), b.input_lit(0)))
    b.add_bad(b.and_(b.latch_lit(0), b.input_lit(1)))
    n = b.build()
    cfg = bmc.BmcConfig(time_budget=0.1)
    t0 = time.perf_counter()
    single = bmc.check_single(n, 0, cfg).elapsed
    t1 = time.perf_counter()
    cluster = bmc.check_cluster(n, [0, 1], cfg).total_elapsed
    t2 = time.perf_counter()
    assert 0.1 <= single < 0.2 and t1 - t0 < 0.2
    assert 0.2 <= cluster < 0.4 and t2 - t1 < 0.4


def test_cluster_covers_all_members():
    n = two_counters(bits=2, bad_a=3, bad_b=2)
    cv = bmc.check_cluster(n, [0, 1], cfg_init())
    assert set(cv.per_property) == {0, 1}
    assert cv.per_property[0].status == bmc.SAT
    assert cv.per_property[1].status == bmc.SAT
    assert cv.per_property[0].depth == 3
    assert cv.per_property[1].depth == 2


def test_cluster_budget_scales_with_size():
    n = duplicated_property_family(3, width=7)
    cfg = bmc.BmcConfig(conflict_budget=100, seed=0)
    cv = bmc.check_cluster(n, [0, 1, 2], cfg)
    assert cv.total_elapsed <= 3 * 100


class CallLog(satcore.SolverSession):
    """A session that lists each solver call: assumptions and outcome."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.calls = []

    def solve(self, assumptions=(), **limits):
        res = super().solve(assumptions, **limits)
        self.calls.append((list(assumptions), res.status,
                           res.conflicts_this_call))
        return res


def with_calls(monkeypatch, run):
    """`run()`'s result and the calls of the one session it made."""
    sessions = []

    def new_solver(seed=0):
        sessions.append(CallLog(seed))
        return sessions[-1]

    monkeypatch.setattr(satcore, "new_solver", new_solver)
    result = run()
    (session,) = sessions
    return result, session.calls


def test_cluster_solves_each_literal_once(monkeypatch):
    # copies of a bad literal take its first property's verdict: under a
    # budget that does not bind, a cluster makes exactly the calls of a
    # run of its distinct literals and answers each copy as that run did
    cfg = bmc.BmcConfig(conflict_budget=5000, max_frames=3, seed=0)
    dup = duplicated_property_family(3)
    assert len(set(dup.properties)) == 1
    single, want = with_calls(
        monkeypatch, lambda: bmc.check_single(dup, 0, cfg))
    cv, got = with_calls(
        monkeypatch, lambda: bmc.check_cluster(dup, [0, 1, 2], cfg))
    assert not single.stopped
    assert not any(cv.per_property[p].stopped for p in (0, 1, 2))
    assert got == want and len(want) == 4
    assert cv.per_frame == single.per_frame
    assert cv.per_property == {p: single for p in (0, 1, 2)}

    # copies 0 and 1 next to a distinct variant 2
    mixed = parity_miter(width=7, copies=2, variants=2)
    assert mixed.properties[0] == mixed.properties[1] != mixed.properties[2]
    distinct, want = with_calls(
        monkeypatch, lambda: bmc.check_cluster(mixed, [0, 2], cfg))
    cv, got = with_calls(
        monkeypatch, lambda: bmc.check_cluster(mixed, [0, 1, 2], cfg))
    assert not any(distinct.per_property[p].stopped for p in (0, 2))
    assert not any(cv.per_property[p].stopped for p in (0, 1, 2))
    assert got == want and len(want) == 8
    assert cv.per_frame == distinct.per_frame
    by_lit = distinct.per_property
    assert cv.per_property == {0: by_lit[0], 1: by_lit[0], 2: by_lit[2]}


def test_cluster_shares_clauses_across_distinct_properties():
    # with copies answered once, sharing shows on distinct properties:
    # a variant conjoins the miter with one leaf, so clauses learned for
    # one property refute the others' frames cheaply
    n = parity_miter(width=9, variants=3)
    assert len(set(n.properties)) == 3
    for seed in range(3):
        cfg = bmc.BmcConfig(conflict_budget=600, max_frames=3, seed=seed)
        singles = sum(s.conflicts for p in range(3)
                      for s in bmc.check_single(n, p, cfg).per_frame)
        cv = bmc.check_cluster(n, range(3), cfg)
        assert sum(s.conflicts for s in cv.per_frame) <= 0.8 * singles


@settings(derandomize=True, max_examples=40, deadline=None)
@given(budget=st.integers(5, 101), seed=st.integers(0, 3), cluster=st.booleans())
def test_cost_never_exceeds_budget(budget, seed, cluster):
    # no frame bound: every run ends by spending its budget, often down to
    # a last unit that one solver call must not overrun
    n = parity_miter(width=7, variants=2)
    cfg = bmc.BmcConfig(conflict_budget=budget, seed=seed)
    if cluster:
        cv = bmc.check_cluster(n, [0, 1], cfg)
        spent, cap, per_frame = cv.total_elapsed, 2 * budget, cv.per_frame
    else:
        v = bmc.check_single(n, 0, cfg)
        spent, cap, per_frame = v.elapsed, budget, v.per_frame
    assert spent <= cap
    assert per_frame[-1].cumulative_time == spent == sum(
        s.solve_time for s in per_frame)


def test_run_with_budget_spends_its_total():
    # the total is the session's own budget: not split over the members,
    # not rounded, and the per-property budget of `cfg` is not read
    n = duplicated_property_family(3, width=7)
    cfg = bmc.BmcConfig(conflict_budget=1, max_frames=6, seed=0)
    got = bmc.run_with_budget(n, [2, 0, 1], cfg, 3 * 40 + 2)
    assert got.total_elapsed == 122
    even = bmc.run_with_budget(n, [2, 0, 1], cfg, 3 * 40)
    want = bmc.check_cluster(n, [0, 1, 2], bmc.BmcConfig(
        conflict_budget=40, max_frames=6, seed=0))
    assert even.total_elapsed == want.total_elapsed == 120
    assert {p: (v.status, v.depth) for p, v in even.per_property.items()} == {
        p: (v.status, v.depth) for p, v in want.per_property.items()}


def test_run_with_budget_frames_only_is_unbudgeted():
    n = two_counters(bits=2, bad_a=3, bad_b=2)
    cfg = bmc.BmcConfig(max_frames=6)
    got = bmc.run_with_budget(n, [0, 1], cfg, None)
    want = bmc.check_cluster(n, [0, 1], cfg)
    for p, depth in ((0, 3), (1, 2)):
        assert got.per_property[p].status == want.per_property[p].status == bmc.SAT
        assert got.per_property[p].depth == want.per_property[p].depth == depth


def test_empty_cluster_rejected():
    with pytest.raises(ValueError, match="cluster must be non-empty"):
        bmc.check_cluster(counter(2), [], cfg_init())


def test_property_index_out_of_range():
    with pytest.raises(ValueError, match="property 5 of 1"):
        bmc.check_single(counter(2, (1,)), 5, cfg_init())


def test_config_validation():
    with pytest.raises(bmc.BmcConfigError):
        bmc.BmcConfig()
    with pytest.raises(bmc.BmcConfigError):
        bmc.BmcConfig(conflict_budget=0)
    with pytest.raises(bmc.BmcConfigError):
        bmc.BmcConfig(max_frames=-1)
    with pytest.raises(bmc.BmcConfigError):
        bmc.BmcConfig(time_budget=1.0, conflict_budget=5)
    for budget in (float("nan"), float("inf")):
        with pytest.raises(bmc.BmcConfigError):
            bmc.BmcConfig(time_budget=budget)
    with pytest.raises(bmc.BmcConfigError):
        bmc.BmcConfig(conflict_budget=5, seed=-1)
    # BMC has one semantics: there is no mode to set
    with pytest.raises(TypeError):
        bmc.BmcConfig(conflict_budget=10, mode="init")
    assert bmc.BmcConfig(max_frames=0).max_frames == 0


def test_deterministic_costs():
    n = parity_miter(width=8)
    cfg = bmc.BmcConfig(conflict_budget=500, seed=7)
    a = bmc.check_single(n, 0, cfg)
    b = bmc.check_single(n, 0, cfg)
    assert a.elapsed == b.elapsed
    assert [(s.conflicts, s.solve_time) for s in a.per_frame] == [
        (s.conflicts, s.solve_time) for s in b.per_frame
    ]


def test_seed_steers_the_search():
    # criterion 08's setup: its 20 trials must be more than one trial run
    # 20 times, and each must still be deterministic
    n = shared_coi_pair(width=9)

    def trial(seed):
        cfg = bmc.BmcConfig(conflict_budget=400, seed=seed)
        singles = [bmc.check_single(n, p, cfg) for p in (0, 1)]
        cv = bmc.check_cluster(n, [0, 1], cfg)
        conflicts = [sum(s.conflicts for s in v.per_frame)
                     for v in singles + [cv]]
        depths = [v.depth for v in singles + [cv.per_property[0],
                                              cv.per_property[1]]]
        return tuple(conflicts), tuple(depths)

    outcomes = [trial(seed) for seed in range(20)]
    assert len(set(outcomes)) >= 2
    assert trial(0) == outcomes[0]


def test_replay_refutes_wrong_cex():
    n = counter(3, (5, 6))
    v = bmc.check_single(n, 0, cfg_init())
    wrong = bmc.Cex(latch_init=v.cex.latch_init, inputs=v.cex.inputs[:-1])
    assert bmc.replay_cex(n, 0, wrong) == bmc.REFUTED
    # one frame from state 5, which reset reaches only at frame 5: a
    # witness from every state, not from reset
    late = bmc.Cex(latch_init=[True, False, True], inputs=[[]])
    assert bmc.replay_cex(n, 0, late) == bmc.REFUTED
    assert bmc.replay_cex(free_latches(n), 0, late) == bmc.CONFIRMED


def test_frame_csvs(tmp_path):
    # one row per frame of each run, in the order the runs are given
    n = counter(3, (5, 6))
    runs = [((0, 1), bmc.check_cluster(n, [0, 1], cfg_init()).per_frame),
            ((0,), bmc.check_single(n, 0, cfg_init()).per_frame)]
    path = bmc.write_frame_csvs(runs, str(tmp_path))
    assert os.path.basename(path) == "cluster_frames.csv"
    assert read_frame_table(path) == [(members, s) for members, per_frame
                                      in runs for s in per_frame]
    assert bmc.write_frame_csvs([], str(tmp_path)) == path
    assert read_frame_table(path) == []


def pinned_runs():
    """Four runs, one through each entry point under a conflict budget
    from every state (on free-latch copies) and one from reset bounded by
    frames alone, each as its verdicts (property, status, depth, elapsed)
    in the order the run reports them and its frames (frame, conflicts,
    solve time, cumulative time)."""
    dup = free_latches(duplicated_property_family(3, width=7))
    single = bmc.check_single(free_latches(parity_miter(width=9)), 0,
                              bmc.BmcConfig(conflict_budget=300, seed=0))
    clusters = [
        bmc.check_cluster(dup, [0, 1, 2],
                          bmc.BmcConfig(conflict_budget=100, seed=0)),
        bmc.run_with_budget(dup, [2, 0, 1], bmc.BmcConfig(
            conflict_budget=1, max_frames=6, seed=0), 3 * 40 + 2),
        bmc.check_cluster(random_netlist(random.Random(7), num_bads=4),
                          range(4), bmc.BmcConfig(max_frames=6)),
    ]
    runs = [({0: single}, single.per_frame)] + [
        (cv.per_property, cv.per_frame) for cv in clusters]
    return [([(p, v.status, v.depth, v.elapsed) for p, v in verdicts.items()],
             [(s.frame, s.conflicts, s.solve_time, s.cumulative_time)
              for s in frames])
            for verdicts, frames in runs]


PINNED_RUNS = [
    ([(0, 'UNDET', 2, 300.0)],
     [(0, 71, 72.0, 72.0), (1, 71, 72.0, 144.0), (2, 84, 85.0, 229.0),
      (3, 70, 71.0, 300.0)]),
    ([(0, 'UNDET', 3, 300.0), (1, 'UNDET', 3, 300.0),
      (2, 'UNDET', 3, 300.0)],
     [(0, 58, 59.0, 59.0), (1, 50, 51.0, 110.0), (2, 105, 106.0, 216.0),
      (3, 50, 51.0, 267.0), (4, 32, 33.0, 300.0)]),
    ([(0, 'UNDET', 1, 122.0), (1, 'UNDET', 1, 122.0),
      (2, 'UNDET', 1, 122.0)],
     [(0, 58, 59.0, 59.0), (1, 50, 51.0, 110.0), (2, 11, 12.0, 122.0)]),
    ([(2, 'SAT', 0, 3.0), (1, 'SAT', 1, 7.0), (3, 'SAT', 1, 7.0),
      (0, 'UNDET', 6, 17.0)],
     [(0, 0, 3.0, 3.0), (1, 2, 4.0, 7.0), (2, 1, 2.0, 9.0),
      (3, 1, 2.0, 11.0), (4, 1, 2.0, 13.0), (5, 1, 2.0, 15.0),
      (6, 1, 2.0, 17.0)]),
]


def test_runs_are_pinned():
    # a change meant to leave the BMC loop's output alone keeps these
    # tuples; one that changes it must re-record them with
    # `python tests/test_bmc.py`
    assert pinned_runs() == PINNED_RUNS


def pinned_work():
    """(solver variables, clauses added, cost units) of fixed initial-state
    runs: the work of the frame encoding, which conflicts alone miss."""
    sessions = []

    def new_solver(seed=0):
        sessions.append(CountingSession(seed))
        return sessions[-1]

    real, satcore.new_solver = satcore.new_solver, new_solver
    try:
        costs = [
            bmc.check_cluster(random_netlist(random.Random(7), num_bads=4),
                              range(4), cfg_init(max_frames=6)).total_elapsed,
            bmc.check_single(random_netlist(random.Random(28), num_bads=3), 0,
                             cfg_init(conflict_budget=60, max_frames=6)).elapsed,
            bmc.check_cluster(parity_miter(width=9, variants=2), [0, 1],
                              cfg_init(conflict_budget=300)).total_elapsed,
            bmc.check_single(parity_miter(width=7), 0,
                             cfg_init(conflict_budget=300, seed=1)).elapsed,
        ]
    finally:
        satcore.new_solver = real
    return [(s.num_vars, s.added, cost) for s, cost in zip(sessions, costs)]


PINNED_WORK = [
    (57, 127, 17.0),
    (1, 1, 7.0),
    (280, 821, 600.0),
    (183, 533, 300.0),
]


def test_encoding_work_is_pinned():
    # a change to the unfolding or the encoder shows here first; one meant
    # to change them re-records with `python tests/test_bmc.py`
    assert pinned_work() == PINNED_WORK


if __name__ == "__main__":
    import pprint
    rows = [pprint.pformat(run, width=72, compact=True)
            for run in pinned_runs()]
    print("PINNED_RUNS = [\n" + "".join(
        "    " + row.replace("\n", "\n    ") + ",\n" for row in rows) + "]")
    print("PINNED_WORK = [\n" + "".join(
        f"    {row},\n" for row in pinned_work()) + "]")
