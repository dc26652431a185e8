import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterbmc import bmc
from clusterbmc.circuits import (
    counter,
    duplicated_property_family,
    parity_miter,
    random_netlist,
    two_counters,
)
from clusterbmc.netlist import INDUCTIVE, INIT, PropertyIndexOutOfRange, extract_coi
from oracles import bfs_reach


def cfg_init(**kw):
    base = dict(conflict_budget=20000, max_frames=8, mode=INIT, seed=0)
    base.update(kw)
    return bmc.BmcConfig(**base)


def test_counter_sat_depth():
    n = counter(3, (5,))
    v = bmc.check_single(n, 0, cfg_init())
    assert v.status == bmc.SAT and v.depth == 5
    assert bmc.replay_cex(n, 0, v.cex) == bmc.CONFIRMED


def test_inductive_dominates_init():
    # a free initial state can hit the bad immediately
    n = counter(3, (5,))
    v = bmc.check_single(n, 0, cfg_init(mode=INDUCTIVE))
    assert v.status == bmc.SAT and v.depth == 0


def test_proof_bound_unsat():
    n = parity_miter(width=4)  # unreachable bad; bounded proof at depth 3
    v = bmc.check_single(n, 0, bmc.BmcConfig(conflict_budget=20000,
                                             proof_bound=3, mode=INIT, seed=0))
    assert v.status == bmc.UNSAT and v.depth == 3


def test_undet_depth_is_deepest_refuted_frame():
    n = parity_miter(width=9)
    v = bmc.check_single(n, 0, bmc.BmcConfig(conflict_budget=300, seed=0))
    assert v.status == bmc.UNDET
    assert 0 <= v.depth <= max(s.frame for s in v.per_frame)


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
                outside += extract_coi(n, p).coi_inputs < n.num_inputs
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
    # the CLI's default mode: frame 0 is every latch valuation, so a bad
    # that holds on any state is hit at once and any other is never hit
    sat = undet = 0
    for trial in range(100):
        rng = random.Random(3000 + trial)
        n = random_netlist(rng, num_bads=rng.randint(2, 4))
        cfg = cfg_init(mode=INDUCTIVE, seed=trial % 3)
        props = range(n.num_properties)
        runs = [{p: bmc.check_single(n, p, cfg) for p in props},
                bmc.check_cluster(n, props, cfg).per_property]
        for verdicts in runs:
            for p, v in verdicts.items():
                want_status, want_depth = bfs_reach(n, p, 8, free_start=True)
                if want_status == "SAT":
                    assert (v.status, v.depth) == ("SAT", want_depth)
                    assert bmc.replay_cex(n, p, v.cex) == bmc.CONFIRMED
                    sat += 1
                else:
                    assert (v.status, v.depth) == (bmc.UNDET, 8)
                    undet += 1
    assert sat > 400 and undet > 40


@pytest.mark.parametrize("time_budget", [1e-5, 3e-5, 0.01])
def test_time_budget_vs_bfs_oracle(time_budget):
    # a wall-clock budget may stop a run anywhere, so only soundness is
    # checked: SAT at BFS's first bad frame, UNDET refuted only below it
    for trial in range(40):
        rng = random.Random(7000 + trial)
        n = random_netlist(rng, num_bads=rng.randint(2, 4))
        cfg = bmc.BmcConfig(time_budget=time_budget, max_frames=8, mode=INIT,
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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(budget=st.integers(5, 101), seed=st.integers(0, 3), cluster=st.booleans())
def test_cost_never_exceeds_budget(budget, seed, cluster):
    # no frame bound: every run ends by spending its budget, often down to
    # a last unit that one solver call must not overrun
    n = parity_miter(width=7, variants=2)
    cfg = bmc.BmcConfig(conflict_budget=budget, seed=seed)
    if cluster:
        spent, cap = bmc.check_cluster(n, [0, 1], cfg).total_elapsed, 2 * budget
    else:
        spent, cap = bmc.check_single(n, 0, cfg).elapsed, budget
    assert spent <= cap


def test_run_with_budget_splits_total_evenly():
    n = duplicated_property_family(3, width=7)
    per = bmc.BmcConfig(conflict_budget=40, max_frames=6, seed=0)
    got = bmc.run_with_budget(n, [2, 0, 1], bmc.BmcConfig(
        conflict_budget=1, max_frames=6, seed=0), 3 * 40 + 2)
    want = bmc.check_cluster(n, [0, 1, 2], per)
    assert got.total_elapsed == want.total_elapsed <= 120
    assert {p: (v.status, v.depth) for p, v in got.per_property.items()} == {
        p: (v.status, v.depth) for p, v in want.per_property.items()}


def test_run_with_budget_frames_only_is_unbudgeted():
    n = two_counters(bits=2, bad_a=3, bad_b=2)
    cfg = bmc.BmcConfig(max_frames=6, mode=INIT)
    got = bmc.run_with_budget(n, [0, 1], cfg, None)
    want = bmc.check_cluster(n, [0, 1], cfg)
    for p, depth in ((0, 3), (1, 2)):
        assert got.per_property[p].status == want.per_property[p].status == bmc.SAT
        assert got.per_property[p].depth == want.per_property[p].depth == depth


def test_empty_cluster_rejected():
    with pytest.raises(bmc.EmptyCluster):
        bmc.check_cluster(counter(2), [], cfg_init())


def test_property_index_out_of_range():
    with pytest.raises(PropertyIndexOutOfRange):
        bmc.check_single(counter(2, (1,)), 5, cfg_init())


def test_config_validation():
    with pytest.raises(bmc.BmcConfigError):
        bmc.BmcConfig()
    with pytest.raises(bmc.BmcConfigError):
        bmc.BmcConfig(conflict_budget=0)
    with pytest.raises(bmc.BmcConfigError):
        bmc.BmcConfig(conflict_budget=10, proof_bound=9, max_frames=4)
    with pytest.raises(bmc.BmcConfigError):
        bmc.BmcConfig(max_frames=-1)
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


def test_replay_refutes_wrong_cex():
    n = counter(3, (5,))
    v = bmc.check_single(n, 0, cfg_init())
    wrong = bmc.Cex(latch_init=v.cex.latch_init, inputs=v.cex.inputs[:-1])
    assert bmc.replay_cex(n, 0, wrong) == bmc.REFUTED


def test_frame_csvs(tmp_path):
    n = counter(3, (5,))
    v = bmc.check_single(n, 0, cfg_init())
    paths = bmc.write_frame_csvs(v.per_frame, str(tmp_path), "run0")
    assert len(paths) == 3
    for p in paths:
        with open(p) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 1 + len(v.per_frame)
        assert os.path.basename(p).startswith("run0_")
