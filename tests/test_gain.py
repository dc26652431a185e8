import random

import pytest

from clusterbmc import gain
from clusterbmc.bmc import SAT, UNDET, Verdict
from oracles import gain_value

TRANSITIONS = [
    gain.UNDET_TO_SAT, gain.SAT_TO_SAT, gain.UNDET_TO_UNDET,
    gain.SAT_TO_UNDET,
]


def V(status, depth=0, elapsed=0.0):
    return Verdict(status=status, depth=depth, elapsed=elapsed)


def test_classification_table():
    # an UNDET run may refute up to the frame below the other's SAT depth
    cases = [
        (V(UNDET, 2), V(SAT, 3), gain.UNDET_TO_SAT),
        (V(SAT, 3), V(SAT, 3), gain.SAT_TO_SAT),
        (V(UNDET, 2), V(UNDET, 9), gain.UNDET_TO_UNDET),
        (V(SAT, 3), V(UNDET, 2), gain.SAT_TO_UNDET),
        (V(SAT, 0), V(UNDET, -1), gain.SAT_TO_UNDET),
    ]
    for s, c, want in cases:
        assert gain.classify(s, c) == want
    assert sorted(gain.RANK) == sorted(TRANSITIONS)


@pytest.mark.parametrize("a, b", [
    (V(SAT, 4), V(SAT, 5)),
    (V(SAT, 3), V(UNDET, 3)),
    (V(SAT, 3), V(UNDET, 7)),
], ids=["sat-depths-differ", "undet-refutes-the-sat-frame",
        "undet-refutes-past-the-sat-frame"])
def test_contradictory_depths_raise(a, b):
    # both runs check the same frames in order: a refuted frame at or past
    # the other run's counterexample, or two counterexample depths, mean an
    # unsound search
    for s, c in ((a, b), (b, a)):
        with pytest.raises(AssertionError, match="contradictory verdicts"):
            gain.classify(s, c)


def test_rank_total_order():
    assert (
        gain.RANK[gain.UNDET_TO_SAT]
        > gain.RANK[gain.SAT_TO_SAT]
        > gain.RANK[gain.UNDET_TO_UNDET]
        > gain.RANK[gain.SAT_TO_UNDET]
    )


def test_worked_numbers():
    r = gain.compute_gain(gain.UNDET_TO_UNDET, V(UNDET, 70), V(UNDET, 105),
                          {0, 1})
    assert r.value == 0.5 and r.cluster == frozenset({0, 1})
    r = gain.compute_gain(gain.SAT_TO_SAT, V(SAT, 0, 100.0), V(SAT, 0, 25.0),
                          {0, 1, 2})
    assert r.value == 0.75
    r = gain.compute_gain(gain.UNDET_TO_UNDET, V(UNDET, 9), V(UNDET, 9),
                          {0, 1})
    assert r.value == 0.0 and not r.degenerate
    with pytest.raises(ValueError):
        gain.compute_gain("SAT_TO_UNSAT", V(SAT), V(SAT), {0, 1})
    # only t_c/(n - 1) reads the cluster size
    with pytest.raises(ValueError, match="at least 2 members"):
        gain.compute_gain(gain.UNDET_TO_SAT, V(UNDET, 2), V(SAT, 3), {0})
    assert gain.compute_gain(gain.SAT_TO_SAT, V(SAT, 3, 4.0), V(SAT, 3, 4.0),
                             ()).value == 0.0


def test_formula_matches_independent_table():
    rng = random.Random(0)
    for _ in range(300):
        tr = rng.choice(TRANSITIONS)
        t_s, t_c = rng.randint(0, 50), rng.randint(0, 50)
        d_s, d_c = rng.randint(0, 30), rng.randint(0, 30)
        size = rng.randint(2, 6)
        r = gain.compute_gain(tr, V(UNDET, d_s, t_s), V(UNDET, d_c, t_c),
                              range(size))
        want, deg = gain_value(tr, t_s, t_c, d_s, d_c, size)
        assert r.value == want and r.degenerate == deg


def test_degenerate_divisors():
    r = gain.compute_gain(gain.SAT_TO_SAT, V(SAT, 0, 0.0), V(SAT, 0, 1.0),
                          {0, 1})
    assert r.value == 0.0 and r.degenerate
    r = gain.compute_gain(gain.UNDET_TO_UNDET, V(UNDET, 0), V(UNDET, 5),
                          {0, 1})
    assert r.value == 0.0 and r.degenerate


def rec(members, tr, value):
    return gain.GainRecord(frozenset(members), tr, value)


def test_rank_dominance_beats_value():
    # a modest full resolution beats a big depth gain
    records = [
        rec({0, 1}, gain.UNDET_TO_UNDET, 0.9),
        rec({0, 2}, gain.UNDET_TO_SAT, 0.4),
    ]
    assert gain.influencing_cluster(records) == frozenset({0, 2})


def test_rank_dominance_random():
    rng = random.Random(2)
    ranked = [t for t in TRANSITIONS]
    for _ in range(200):
        hi = rec({0, 1}, gain.UNDET_TO_SAT, rng.uniform(-5, 5))
        lo_tr = rng.choice([t for t in ranked
                            if gain.RANK[t] < gain.RANK[gain.UNDET_TO_SAT]])
        lo = rec({0, 2}, lo_tr, rng.uniform(-5, 5))
        assert gain.influencing_cluster([lo, hi]) == hi.cluster


def test_selector_permutation_invariance():
    rng = random.Random(3)
    records = [
        rec({0, i + 1}, rng.choice(TRANSITIONS), rng.uniform(-2, 2))
        for i in range(6)
    ]
    want = gain.influencing_cluster(records)
    for _ in range(10):
        rng.shuffle(records)
        assert gain.influencing_cluster(records) == want


def test_tie_breaks():
    # equal rank and value: smaller cluster wins
    records = [
        rec({0, 1, 2}, gain.UNDET_TO_UNDET, 0.5),
        rec({0, 1}, gain.UNDET_TO_UNDET, 0.5),
    ]
    assert gain.influencing_cluster(records) == frozenset({0, 1})
    # same size too: lexicographically smallest member set
    records = [
        rec({0, 2}, gain.UNDET_TO_UNDET, 0.5),
        rec({0, 1}, gain.UNDET_TO_UNDET, 0.5),
    ]
    assert gain.influencing_cluster(records) == frozenset({0, 1})


def test_no_records():
    # a property in no cluster has no records, and no influencing cluster
    with pytest.raises(ValueError):
        gain.influencing_cluster([])


def table1_fixture():
    """Synthetic verdicts forcing the documented influencing-cluster map."""
    clusters = [frozenset(s) for s in
                [{1, 4}, {1, 2, 3}, {2, 3, 4}, {2, 3}, {1, 3, 4}]]
    want = {1: frozenset({1, 3, 4}), 2: frozenset({2, 3}),
            3: frozenset({1, 3, 4}), 4: frozenset({1, 4})}
    standalone = {p: V(UNDET, 10) for p in (1, 2, 3, 4)}
    runs = []
    for c in clusters:
        runs.append((c, {p: V(UNDET, 20 if want[p] == c else 12) for p in c}))
    return standalone, runs, want


def test_influencing_map_reference_scenario():
    standalone, runs, want = table1_fixture()
    m = gain.build_influencing_map("d", standalone, runs)
    assert m.influencing == want


def test_influencing_map_uncovered_property():
    standalone = {0: V(UNDET, 5), 1: V(UNDET, 5), 2: V(UNDET, 5)}
    runs = [(frozenset({0, 1}), {0: V(UNDET, 8), 1: V(UNDET, 9)})]
    m = gain.build_influencing_map("d", standalone, runs)
    assert m.influencing[2] is None
    assert m.influencing[0] == frozenset({0, 1})


def test_missing_standalone_verdict():
    runs = [(frozenset({0, 1}), {0: V(UNDET, 8), 1: V(UNDET, 9)})]
    with pytest.raises(KeyError):
        gain.build_influencing_map("d", {0: V(UNDET, 5)}, runs)
