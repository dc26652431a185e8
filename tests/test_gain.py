import random

import pytest

from clusterbmc import gain
from clusterbmc.bmc import SAT, UNSAT, UNDET, Verdict
from oracles import gain_value

TRANSITIONS = [
    gain.UNDET_TO_SAT, gain.UNDET_TO_UNSAT, gain.SAT_TO_SAT,
    gain.UNSAT_TO_UNSAT, gain.UNDET_TO_UNDET, gain.SAT_TO_UNDET,
    gain.UNSAT_TO_UNDET,
]


def V(status, depth=0, elapsed=0.0):
    return Verdict(status=status, depth=depth, elapsed=elapsed)


def test_classification_table():
    cases = {
        (UNDET, SAT): gain.UNDET_TO_SAT,
        (UNDET, UNSAT): gain.UNDET_TO_UNSAT,
        (SAT, SAT): gain.SAT_TO_SAT,
        (UNSAT, UNSAT): gain.UNSAT_TO_UNSAT,
        (UNDET, UNDET): gain.UNDET_TO_UNDET,
        (SAT, UNDET): gain.SAT_TO_UNDET,
        (UNSAT, UNDET): gain.UNSAT_TO_UNDET,
    }
    for (s, c), want in cases.items():
        assert gain.classify(V(s), V(c)) == want
    # a counterexample against a proof means an unsound harness
    for s, c in ((SAT, UNSAT), (UNSAT, SAT)):
        with pytest.raises(AssertionError):
            gain.classify(V(s), V(c))


def test_rank_total_order():
    assert gain.RANK[gain.UNDET_TO_SAT] == gain.RANK[gain.UNDET_TO_UNSAT]
    assert gain.RANK[gain.SAT_TO_SAT] == gain.RANK[gain.UNSAT_TO_UNSAT]
    assert (
        gain.RANK[gain.UNDET_TO_SAT]
        > gain.RANK[gain.SAT_TO_SAT]
        > gain.RANK[gain.UNDET_TO_UNDET]
        > gain.RANK[gain.SAT_TO_UNDET]
        > gain.RANK[gain.UNSAT_TO_UNDET]
    )


def test_worked_numbers():
    r = gain.compute_gain(gain.UNDET_TO_UNDET, V(UNDET, 70), V(UNDET, 105), 2)
    assert r.value == 0.5
    r = gain.compute_gain(gain.SAT_TO_SAT, V(SAT, 0, 100.0), V(SAT, 0, 25.0), 3)
    assert r.value == 0.75
    r = gain.compute_gain(gain.UNDET_TO_UNDET, V(UNDET, 9), V(UNDET, 9), 2)
    assert r.value == 0.0 and not r.degenerate
    with pytest.raises(ValueError):
        gain.compute_gain("SAT_TO_UNSAT", V(SAT), V(UNSAT), 2)


def test_formula_matches_independent_table():
    rng = random.Random(0)
    for _ in range(300):
        tr = rng.choice(TRANSITIONS)
        t_s, t_c = rng.randint(0, 50), rng.randint(0, 50)
        d_s, d_c = rng.randint(0, 30), rng.randint(0, 30)
        size = rng.randint(2, 6)
        r = gain.compute_gain(tr, V(UNDET, d_s, t_s), V(UNDET, d_c, t_c), size)
        want, deg = gain_value(tr, t_s, t_c, d_s, d_c, size)
        assert r.value == want and r.degenerate == deg


def test_degenerate_divisors():
    r = gain.compute_gain(gain.SAT_TO_SAT, V(SAT, 0, 0.0), V(SAT, 0, 1.0), 2)
    assert r.value == 0.0 and r.degenerate
    r = gain.compute_gain(gain.UNDET_TO_UNDET, V(UNDET, 0), V(UNDET, 5), 2)
    assert r.value == 0.0 and r.degenerate


def rec(prop, members, tr, value):
    return gain.GainRecord(prop, frozenset(members), tr, value)


def test_rank_dominance_beats_value():
    # a modest full resolution beats a big depth gain
    records = [
        rec(0, {0, 1}, gain.UNDET_TO_UNDET, 0.9),
        rec(0, {0, 2}, gain.UNDET_TO_SAT, 0.4),
    ]
    assert gain.influencing_cluster(0, records) == frozenset({0, 2})


def test_rank_dominance_random():
    rng = random.Random(2)
    ranked = [t for t in TRANSITIONS]
    for _ in range(200):
        hi = rec(0, {0, 1}, gain.UNDET_TO_SAT, rng.uniform(-5, 5))
        lo_tr = rng.choice([t for t in ranked
                            if gain.RANK[t] < gain.RANK[gain.UNDET_TO_SAT]])
        lo = rec(0, {0, 2}, lo_tr, rng.uniform(-5, 5))
        assert gain.influencing_cluster(0, [lo, hi]) == hi.cluster


def test_selector_permutation_invariance():
    rng = random.Random(3)
    records = [
        rec(0, {0, i + 1}, rng.choice(TRANSITIONS), rng.uniform(-2, 2))
        for i in range(6)
    ]
    want = gain.influencing_cluster(0, records)
    for _ in range(10):
        rng.shuffle(records)
        assert gain.influencing_cluster(0, records) == want


def test_tie_breaks():
    # equal rank and value: smaller cluster wins
    records = [
        rec(0, {0, 1, 2}, gain.UNDET_TO_UNDET, 0.5),
        rec(0, {0, 1}, gain.UNDET_TO_UNDET, 0.5),
    ]
    assert gain.influencing_cluster(0, records) == frozenset({0, 1})
    # same size too: lexicographically smallest member set
    records = [
        rec(0, {0, 2}, gain.UNDET_TO_UNDET, 0.5),
        rec(0, {0, 1}, gain.UNDET_TO_UNDET, 0.5),
    ]
    assert gain.influencing_cluster(0, records) == frozenset({0, 1})


def test_no_records():
    with pytest.raises(gain.NoRecords):
        gain.influencing_cluster(3, [rec(0, {0, 1}, gain.SAT_TO_SAT, 0.1)])


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
    with pytest.raises(gain.MissingStandaloneVerdict):
        gain.build_influencing_map("d", {0: V(UNDET, 5)}, runs)
