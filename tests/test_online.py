import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterbmc import bmc, cli, gain, online, store
from clusterbmc.circuits import counter, parity_miter, two_counters
from clusterbmc.netlist import DataError, serialize_aiger
from oracles import assignment_brute_force

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record(design, props, ni=2, nl=4, na=20):
    entries = tuple(
        store.PropertyEntry(p[0], p[1], p[2], "UNDET", -1, 0.0) for p in props
    )
    return store.DesignRecord(design, ni, nl, na, entries)


def test_select_exact_twin():
    twin = record("twin", [(1, 2, 3), (4, 5, 6)])
    other = record("other", [(9, 9, 9), (9, 9, 9)], ni=7, nl=7, na=90)
    unknown = record("unk", [(1, 2, 3), (4, 5, 6)])
    assert online.select_similar_design([other, twin], unknown) is twin


def test_select_closer_candidate():
    a = record("a", [(1, 1, 1)] * 3, na=25)   # distance 5 from unknown
    b = record("b", [(1, 1, 1)] * 3, na=29)   # distance 9
    unknown = record("unk", [(1, 1, 1)] * 3, na=20)
    assert online.select_similar_design([b, a], unknown) is a


def test_select_matches_brute_force():
    rng = random.Random(0)
    for trial in range(30):
        # property counts 1-5 differ by less than the default window of
        # 5: no pruning, pure distance comparison
        recs = [
            record(f"d{i}",
                   [(rng.randint(0, 9),) * 3 for _ in range(rng.randint(1, 5))],
                   ni=rng.randint(0, 9), nl=rng.randint(0, 9),
                   na=rng.randint(0, 99))
            for i in range(6)
        ]
        unknown = record("unk", [(rng.randint(0, 9),) * 3
                                 for _ in range(rng.randint(1, 5))])
        got = online.select_similar_design(recs, unknown)
        fu = unknown.feature_vector()
        dist = lambda r: sum(abs(x - y) for x, y in zip(r.feature_vector(), fu))
        want = min(recs, key=lambda r: (dist(r), r.design))
        assert got is want


def test_pruning_widens_when_empty(caplog):
    # the window (p_u - delta, p_u + delta) is open, so a design of
    # p_u + delta properties is pruned until delta doubles; delta is 5
    # up to 25 properties, then a fifth of them, rounded up
    for p_u, delta in [(2, 5), (40, 8)]:
        far = record("far", [(1, 1, 1)] * (p_u + delta))
        unknown = record("unk", [(1, 1, 1)] * p_u)
        caplog.clear()
        assert online.select_similar_design([far], unknown) is far
        assert (f"pruning empty at delta={delta}; widening to {2 * delta}"
                in caplog.text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 400), min_size=1, max_size=6),
       unknown_count=st.integers(0, 40))
def test_pruning_always_finds_a_design(counts, unknown_count):
    # doubling delta past every property count admits every design
    recs = [record(f"d{i}", [(1, 1, 1)] * c) for i, c in enumerate(counts)]
    unknown = record("unk", [(1, 1, 1)] * unknown_count)
    got = online.select_similar_design(recs, unknown)
    assert got in recs


def test_empty_db():
    with pytest.raises(DataError, match="DB1 has no designs"):
        online.select_similar_design([], record("u", [(1, 1, 1)]))


def test_diff_matrix_arithmetic():
    n = two_counters(bits=2)
    b = record("b", [(0, 0, 0), (2, 3, 4)])
    m = online.build_diff_matrix(b, online.unknown_record(n))
    # unknown's properties each cover 2 latches and some ANDs
    c0 = online.extract_coi(n, 0)
    assert m[0][0] == c0.coi_inputs + c0.coi_latches + c0.coi_ands
    assert m[1][0] == (
        abs(2 - c0.coi_inputs) + abs(3 - c0.coi_latches) + abs(4 - c0.coi_ands)
    )


def test_assignment_matches_brute_force():
    rng = random.Random(1)
    for trial in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        ent = tuple(tuple(rng.randint(0, 30) for _ in range(nc))
                    for _ in range(nr))
        pm = online.associate_properties(ent)
        assert len(set(pm.values())) == len(pm)  # injective
        cost = sum(ent[i][j] for i, j in pm.items())
        assert cost == assignment_brute_force(ent)


def test_assignment_identity_matrix():
    ent = ((0, 7, 7), (7, 0, 7), (7, 7, 0))
    assert online.associate_properties(ent) == {0: 0, 1: 1, 2: 2}


def test_assignment_single_row():
    assert online.associate_properties(((4, 1, 9),)) == {0: 1}


def test_convert_clusters_rewrite():
    pm = {1: 3, 3: 1, 4: 2}
    out = online.convert_clusters([frozenset({1, 3, 4})], pm)
    assert out == [frozenset({1, 2, 3})]


def test_convert_clusters_drops_and_dedups():
    pm = {1: 3, 3: 1, 4: 2}
    out = online.convert_clusters(
        [frozenset({1, 2}), frozenset({1, 2, 3}), frozenset({3, 1})], pm
    )
    # {1,2} loses member 2 -> too small; {1,2,3} and {3,1} both map to {1,3}
    assert out == [frozenset({1, 3})]


def test_identity_map_keeps_clusters():
    pm = {0: 0, 1: 1, 2: 2}
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
    cfg = bmc.BmcConfig(conflict_budget=200, max_frames=6, seed=0)
    db1, db3 = db_for(n, "twoctr", cfg, [frozenset({0, 1})])
    report = online.verify_unknown(n, db1, db3, cfg, design="twoctr")
    assert report.matched == "twoctr"
    assert sorted(r.property for r in report.rows) == [0, 1]
    by_prop = {r.property: r for r in report.rows}
    assert by_prop[0].cluster == (0, 1)
    assert (by_prop[0].verdict.status, by_prop[0].verdict.depth) == ("SAT", 3)
    assert (by_prop[1].verdict.status, by_prop[1].verdict.depth) == ("SAT", 2)


def test_verify_leftover_property_runs_standalone():
    n = counter(3, (5, 6, 7))
    cfg = bmc.BmcConfig(conflict_budget=500, max_frames=8, seed=0)
    db1, db3 = db_for(n, "ctr", cfg, [frozenset({0, 1})])
    report = online.verify_unknown(n, db1, db3, cfg, design="ctr")
    by_prop = {r.property: r for r in report.rows}
    assert by_prop[2].cluster is None
    assert {p: by_prop[p].verdict.depth for p in (0, 1, 2)} == {
        0: 5, 1: 6, 2: 7}


def test_verify_baseline_fields():
    n = two_counters(bits=2)
    cfg = bmc.BmcConfig(conflict_budget=200, max_frames=6, seed=0)
    db1, db3 = db_for(n, "twoctr", cfg, [frozenset({0, 1})])
    report = online.verify_unknown(n, db1, db3, cfg, design="twoctr",
                                   baseline=True)
    for row in report.rows:
        assert row.baseline is not None
        assert row.transition is not None
        assert row.gain is not None


def test_unknown_record_carries_verdicts():
    n = counter(3, (5, 6))
    cfg = bmc.BmcConfig(conflict_budget=500, max_frames=8, seed=0)
    verdicts = {p: bmc.check_single(n, p, cfg) for p in range(2)}
    rec = online.unknown_record(n, "ctr", verdicts)
    assert [(e.status, e.depth, e.elapsed) for e in rec.props] == [
        (v.status, v.depth, v.elapsed) for v in verdicts.values()]
    bare = online.unknown_record(n, "ctr")
    assert [(e.status, e.depth) for e in bare.props] == [(bmc.UNDET, -1)] * 2
    assert [e.coi_ands for e in bare.props] == [e.coi_ands for e in rec.props]


def test_baseline_reuses_standalone_verdicts(monkeypatch, tmp_path):
    n = counter(3, (5, 6, 7))
    cfg = bmc.BmcConfig(conflict_budget=500, max_frames=8, seed=0)
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
        assert by_prop[p].baseline == v


def test_singles_run_once_per_bad_literal(monkeypatch, tmp_path):
    # properties 0 and 1 are copies of one bad literal
    n = parity_miter(width=4, copies=2, variants=2)
    cfg = bmc.BmcConfig(conflict_budget=300, max_frames=6, seed=0)
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
        assert by_prop[p].baseline == v


@pytest.fixture(scope="module")
def bank_db(tmp_path_factory):
    """DB1 and DB3 of an `offline` build over two three-block banks (the
    benchmark's generator), and two unseen four-block banks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(os.path.join(ROOT, "bench"))
        from workloads import bank
    root = tmp_path_factory.mktemp("banks")
    rng = random.Random(0)
    paths = []
    for i in range(2):
        path = root / f"known{i}.aag"
        path.write_text(serialize_aiger(bank(rng, f"known{i}", 3)))
        paths.append(str(path))
    db = str(root / "db")
    assert cli.main(["offline", *paths, "--out-dir", db, "--patterns", "256",
                     "--max-clusters", "6", "--budget-conflicts", "30",
                     "--max-frames", "8", "--mode", "init", "--seed", "1"]) == 0
    files = store.db_paths(db)
    db1 = store.read_db(store.DB1, files[store.DB1])
    db3 = store.read_db(store.DB3, files[store.DB3])
    unseen = [bank(rng, f"unseen{k}") for k in range(2)]
    return db1, db3, unseen


@pytest.mark.parametrize("budget", range(1, 10))
def test_campaign_spends_at_most_its_budget(bank_db, budget):
    # each cluster run gets exactly the per-property budget times the
    # properties it claims, also when that is fewer than its members
    db1, db3, unseen = bank_db
    cfg = bmc.BmcConfig(conflict_budget=budget, max_frames=8, seed=0)
    for n in unseen:
        report = online.verify_unknown(n, db1, db3, cfg, design=n.name)
        assert report.cluster_runs
        spent = 0.0
        for members, per_frame in report.cluster_runs:
            claims = sum(r.cluster == members for r in report.rows)
            assert per_frame[-1].cumulative_time <= budget * claims
            spent += per_frame[-1].cumulative_time
        spent += sum(r.verdict.elapsed for r in report.rows
                     if r.cluster is None)
        assert spent <= budget * n.num_properties


def test_report_render_deterministic():
    n = two_counters(bits=2)
    cfg = bmc.BmcConfig(conflict_budget=200, max_frames=6, seed=0)
    db1, db3 = db_for(n, "twoctr", cfg, [frozenset({0, 1})])
    a = online.verify_unknown(n, db1, db3, cfg, design="twoctr").render()
    b = online.verify_unknown(n, db1, db3, cfg, design="twoctr").render()
    assert a == b


def test_report_render_is_pinned():
    # the bytes bench/check.py and `report` parse: property 0 runs
    # unclaimed, 1 and 2 in one cluster
    n = counter(3, (5, 6, 7))
    cfg = bmc.BmcConfig(conflict_budget=500, max_frames=6, seed=0)
    db1, db3 = db_for(n, "ctr", cfg, [frozenset({1, 2})])
    head = ("campaign ctr matched=ctr\n"
            "property|cluster|status|depth|elapsed|baseline_status"
            "|baseline_depth|baseline_elapsed|transition|gain\n")
    assert online.verify_unknown(n, db1, db3, cfg, design="ctr").render() == (
        head
        + "0|-|SAT|5|6.0|-|-|-|-|-\n"
        "1|1 2|SAT|6|13.0|-|-|-|-|-\n"
        "2|1 2|UNDET|6|14.0|-|-|-|-|-\n")
    assert online.verify_unknown(n, db1, db3, cfg, design="ctr",
                                 baseline=True).render() == (
        head
        + "0|-|SAT|5|6.0|SAT|5|6.0|SAT_TO_SAT|0.0\n"
        "1|1 2|SAT|6|13.0|SAT|6|7.0|SAT_TO_SAT|-0.8571428571428571\n"
        "2|1 2|UNDET|6|14.0|UNDET|6|7.0|UNDET_TO_UNDET|0.0\n")
