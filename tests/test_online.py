import random

import pytest

from clusterbmc import bmc, gain, online, store
from clusterbmc.circuits import counter, parity_miter, two_counters
from clusterbmc.netlist import INIT
from oracles import assignment_brute_force


def record(design, props, ni=2, nl=4, na=20):
    entries = tuple(
        store.PropertyEntry(p[0], p[1], p[2], "UNDET", -1, 0.0) for p in props
    )
    return store.DesignRecord(design, ni, nl, na, entries)


def test_select_exact_twin():
    twin = record("twin", [(1, 2, 3), (4, 5, 6)])
    other = record("other", [(9, 9, 9), (9, 9, 9)], ni=7, nl=7, na=90)
    unknown = record("unk", [(1, 2, 3), (4, 5, 6)])
    assert online.select_similar_design([other, twin], unknown) == "twin"


def test_select_closer_candidate():
    a = record("a", [(1, 1, 1)] * 3, na=25)   # distance 5 from unknown
    b = record("b", [(1, 1, 1)] * 3, na=29)   # distance 9
    unknown = record("unk", [(1, 1, 1)] * 3, na=20)
    assert online.select_similar_design([b, a], unknown) == "a"


def test_select_matches_brute_force():
    rng = random.Random(0)
    for trial in range(30):
        recs = [
            record(f"d{i}",
                   [(rng.randint(0, 9),) * 3 for _ in range(rng.randint(1, 6))],
                   ni=rng.randint(0, 9), nl=rng.randint(0, 9),
                   na=rng.randint(0, 99))
            for i in range(6)
        ]
        unknown = record("unk", [(rng.randint(0, 9),) * 3
                                 for _ in range(rng.randint(1, 6))])
        # wide delta: no pruning, pure distance comparison
        got = online.select_similar_design(recs, unknown, delta=100)
        fu = unknown.feature_vector()
        dist = lambda r: sum(abs(x - y) for x, y in zip(r.feature_vector(), fu))
        want = min(recs, key=lambda r: (dist(r), r.design)).design
        assert got == want


def test_pruning_widens_when_empty():
    far = record("far", [(1, 1, 1)] * 9)
    unknown = record("unk", [(1, 1, 1)] * 2)
    # delta=1 admits only property count exactly 2; widening finds "far"
    assert online.select_similar_design([far], unknown, delta=1) == "far"


def test_empty_db():
    with pytest.raises(online.EmptyDatabase):
        online.select_similar_design([], record("u", [(1, 1, 1)]))


def test_diff_matrix_arithmetic():
    n = two_counters(bits=2)
    b = record("b", [(0, 0, 0), (2, 3, 4)])
    m = online.build_diff_matrix(b, online.unknown_record(n))
    # unknown's properties each cover 2 latches and some ANDs
    c0 = online.extract_coi(n, 0)
    assert m.entries[0][0] == c0.coi_inputs + c0.coi_latches + c0.coi_ands
    assert m.entries[1][0] == (
        abs(2 - c0.coi_inputs) + abs(3 - c0.coi_latches) + abs(4 - c0.coi_ands)
    )


def test_assignment_matches_brute_force():
    rng = random.Random(1)
    for trial in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        ent = tuple(tuple(rng.randint(0, 30) for _ in range(nc))
                    for _ in range(nr))
        m = online.DiffMatrix(tuple(range(nr)), tuple(range(nc)), ent)
        pm = online.associate_properties(m)
        assert len(set(pm.mapping.values())) == len(pm.mapping)  # injective
        cost = sum(ent[i][j] for i, j in pm.mapping.items())
        assert cost == assignment_brute_force(ent)


def test_assignment_identity_matrix():
    ent = ((0, 7, 7), (7, 0, 7), (7, 7, 0))
    m = online.DiffMatrix((0, 1, 2), (0, 1, 2), ent)
    pm = online.associate_properties(m)
    assert pm.mapping == {0: 0, 1: 1, 2: 2} and not pm.unmapped


def test_assignment_single_row():
    m = online.DiffMatrix((0,), (0, 1, 2), ((4, 1, 9),))
    assert online.associate_properties(m).mapping == {0: 1}


def test_convert_clusters_rewrite():
    pm = online.PropertyMap({1: 3, 3: 1, 4: 2}, ())
    out = online.convert_clusters([frozenset({1, 3, 4})], pm)
    assert out == [frozenset({1, 2, 3})]


def test_convert_clusters_drops_and_dedups():
    pm = online.PropertyMap({1: 3, 3: 1, 4: 2}, (2,))
    out = online.convert_clusters(
        [frozenset({1, 2}), frozenset({1, 2, 3}), frozenset({3, 1})], pm
    )
    # {1,2} loses member 2 -> too small; {1,2,3} and {3,1} both map to {1,3}
    assert out == [frozenset({1, 3})]


def test_identity_map_keeps_clusters():
    pm = online.PropertyMap({0: 0, 1: 1, 2: 2}, ())
    fam = [frozenset({0, 1}), frozenset({0, 1, 2})]
    assert online.convert_clusters(fam, pm) == sorted(
        fam, key=lambda c: (len(c), tuple(sorted(c))))


def db_for(n, name, cfg, clusters):
    """Minimal DB1+DB3 built from a real netlist."""
    rec = online.unknown_record(n, name)
    g = gain.GainRecord(0, clusters[0], gain.UNDET_TO_UNDET, 0.5)
    db3 = [store.InfluenceRecord(name, 0, clusters[0],
                                 (g,))]
    return [rec], db3


def test_verify_self_similarity():
    n = two_counters(bits=2, bad_a=3, bad_b=2)
    cfg = bmc.BmcConfig(conflict_budget=200, max_frames=6, mode=INIT, seed=0)
    db1, db3 = db_for(n, "twoctr", cfg, [frozenset({0, 1})])
    report = online.verify_unknown(n, db1, db3, cfg, design="twoctr")
    assert report.matched == "twoctr"
    assert sorted(r.property for r in report.rows) == [0, 1]
    by_prop = {r.property: r for r in report.rows}
    assert by_prop[0].cluster == (0, 1)
    assert by_prop[0].status == "SAT" and by_prop[0].depth == 3
    assert by_prop[1].status == "SAT" and by_prop[1].depth == 2


def test_verify_leftover_property_runs_standalone():
    n = counter(3, (5, 6, 7))
    cfg = bmc.BmcConfig(conflict_budget=500, max_frames=8, mode=INIT, seed=0)
    db1, db3 = db_for(n, "ctr", cfg, [frozenset({0, 1})])
    report = online.verify_unknown(n, db1, db3, cfg, design="ctr")
    by_prop = {r.property: r for r in report.rows}
    assert by_prop[2].cluster is None
    assert {p: by_prop[p].depth for p in (0, 1, 2)} == {0: 5, 1: 6, 2: 7}


def test_verify_baseline_fields():
    n = two_counters(bits=2)
    cfg = bmc.BmcConfig(conflict_budget=200, max_frames=6, mode=INIT, seed=0)
    db1, db3 = db_for(n, "twoctr", cfg, [frozenset({0, 1})])
    report = online.verify_unknown(n, db1, db3, cfg, design="twoctr",
                                   baseline=True)
    for row in report.rows:
        assert row.baseline_status is not None
        assert row.transition is not None
        assert row.gain is not None


def test_unknown_record_carries_verdicts():
    n = counter(3, (5, 6))
    cfg = bmc.BmcConfig(conflict_budget=500, max_frames=8, mode=INIT, seed=0)
    verdicts = {p: bmc.check_single(n, p, cfg) for p in range(2)}
    rec = online.unknown_record(n, "ctr", verdicts)
    assert [(e.status, e.depth, e.elapsed) for e in rec.props] == [
        (v.status, v.depth, v.elapsed) for v in verdicts.values()]
    bare = online.unknown_record(n, "ctr")
    assert [(e.status, e.depth) for e in bare.props] == [(bmc.UNDET, -1)] * 2
    assert [e.coi_ands for e in bare.props] == [e.coi_ands for e in rec.props]


def test_baseline_reuses_standalone_verdicts(monkeypatch, tmp_path):
    n = counter(3, (5, 6, 7))
    cfg = bmc.BmcConfig(conflict_budget=500, max_frames=8, mode=INIT, seed=0)
    db1, db3 = db_for(n, "ctr", cfg, [frozenset({0, 1})])
    # runs are split over two processes, so they are counted in a file
    log = tmp_path / "runs.txt"
    check_single = bmc.check_single

    def counting(n, p, cfg):
        with open(log, "a") as fh:
            fh.write(f"{p}\n")
        return check_single(n, p, cfg)

    monkeypatch.setattr(bmc, "check_single", counting)
    report = online.verify_unknown(n, db1, db3, cfg, design="ctr",
                                   baseline=True)
    runs = [int(line) for line in log.read_text().split()]
    # property 2 ran standalone once; only the clustered 0 and 1 re-run
    assert sorted(runs) == [0, 1, 2]
    by_prop = {r.property: r for r in report.rows}
    for p in range(3):
        v = check_single(n, p, cfg)
        row = by_prop[p]
        assert (row.baseline_status, row.baseline_depth,
                row.baseline_elapsed) == (v.status, v.depth, v.elapsed)


def test_singles_run_once_per_bad_literal(monkeypatch, tmp_path):
    # properties 0 and 1 are copies of one bad literal
    n = parity_miter(width=4, copies=2, variants=2)
    cfg = bmc.BmcConfig(conflict_budget=300, max_frames=6, mode=INIT, seed=0)
    db1, db3 = db_for(n, "miter", cfg, [frozenset({0, 2})])
    log = tmp_path / "runs.txt"
    check_single = bmc.check_single

    def counting(n, p, cfg):
        with open(log, "a") as fh:
            fh.write(f"{p}\n")
        return check_single(n, p, cfg)

    monkeypatch.setattr(bmc, "check_single", counting)
    report = online.verify_unknown(n, db1, db3, cfg, design="miter",
                                   baseline=True)
    # 1 runs unclaimed and answers the baseline of 0; 2 runs for its own
    assert sorted(int(line) for line in log.read_text().split()) == [1, 2]
    by_prop = {r.property: r for r in report.rows}
    assert by_prop[1].cluster is None
    for p in range(3):
        v = check_single(n, p, cfg)
        row = by_prop[p]
        assert (row.baseline_status, row.baseline_depth,
                row.baseline_elapsed) == (v.status, v.depth, v.elapsed)


def test_select_rejects_delta_below_one():
    rec = record("a", [(1, 1, 1)] * 2)
    with pytest.raises(ValueError, match="delta must be at least 1"):
        online.select_similar_design([rec], rec, delta=0)


def test_report_render_deterministic():
    n = two_counters(bits=2)
    cfg = bmc.BmcConfig(conflict_budget=200, max_frames=6, mode=INIT, seed=0)
    db1, db3 = db_for(n, "twoctr", cfg, [frozenset({0, 1})])
    a = online.verify_unknown(n, db1, db3, cfg, design="twoctr").render()
    b = online.verify_unknown(n, db1, db3, cfg, design="twoctr").render()
    assert a == b
