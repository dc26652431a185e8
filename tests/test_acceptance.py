"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py`; each test prints
`[criterion NN] PASS ...` (or FAIL) directly to the terminal.
"""

import filecmp
import os
import random
import time

import numpy as np

from clusterbmc import bmc, cli, embed, gain, online, satcore, store
from clusterbmc.bmc import BmcConfig
from clusterbmc.circuits import (
    counter,
    duplicated_property_family,
    parity_miter,
    random_netlist,
    shared_coi_pair,
    two_counters,
)
from clusterbmc.netlist import INIT, parse_aiger, serialize_aiger, _coi_vars
from clusterbmc.bmc import Verdict
import oracles


def verdict_line(capsys, num, ok, desc):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_bmc_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(200):
        rng = random.Random(trial)
        n = random_netlist(rng)
        want_status, want_depth = oracles.bfs_reach(n, 0, 8)
        cfg = BmcConfig(conflict_budget=50000, max_frames=8, mode=INIT,
                        seed=trial % 5)
        v = bmc.check_single(n, 0, cfg)
        if want_status == "SAT":
            ok = (v.status, v.depth) == ("SAT", want_depth)
            ok = ok and bmc.replay_cex(n, 0, v.cex) == bmc.CONFIRMED
        else:
            ok = v.status == bmc.UNDET
        mismatches += not ok
    elapsed = time.perf_counter() - t0
    verdict_line(
        capsys, 1, mismatches == 0 and elapsed < 60,
        f"BMC equals explicit-state BFS on 200 random netlists "
        f"({mismatches} mismatches, {elapsed:.1f}s)",
    )


def test_criterion_02_sat_solver_completeness(capsys):
    mismatches = 0
    for trial in range(500):
        rng = random.Random(trial)
        nv = rng.randint(1, 12)
        clauses = [
            [rng.randint(1, nv) * rng.choice([1, -1])
             for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 3 * nv))
        ]
        s = satcore.new_solver(seed=trial)
        for c in clauses:
            s.add_clause(c)
        if s.solve().status != oracles.cnf_enumerate(nv, clauses):
            mismatches += 1
    verdict_line(
        capsys, 2, mismatches == 0,
        f"solver equals exhaustive enumeration on 500 CNFs "
        f"({mismatches} mismatches)",
    )


def test_criterion_03_gain_formula_oracle(capsys):
    transitions = [
        gain.UNDET_TO_SAT, gain.UNDET_TO_UNSAT, gain.SAT_TO_SAT,
        gain.UNSAT_TO_UNSAT, gain.UNDET_TO_UNDET, gain.SAT_TO_UNDET,
        gain.UNSAT_TO_UNDET,
    ]
    rng = random.Random(0)
    mismatches = 0
    for _ in range(1000):
        tr = rng.choice(transitions)
        t_s, t_c = rng.randint(0, 200), rng.randint(0, 200)
        d_s, d_c = rng.randint(0, 120), rng.randint(0, 120)
        size = rng.randint(2, 8)
        r = gain.compute_gain(tr, Verdict(bmc.UNDET, d_s, t_s),
                              Verdict(bmc.UNDET, d_c, t_c), size)
        want, deg = oracles.gain_value(tr, t_s, t_c, d_s, d_c, size)
        if r.value != want or r.degenerate != deg:
            mismatches += 1
    # worked numbers: d_s=70, d_c=105 gives 0.5; priority example
    worked = gain.compute_gain(
        gain.UNDET_TO_UNDET, Verdict(bmc.UNDET, 70), Verdict(bmc.UNDET, 105), 2
    ).value == 0.5
    recs = [
        gain.GainRecord(0, frozenset({0, 1}), gain.UNDET_TO_UNDET, 0.9),
        gain.GainRecord(0, frozenset({0, 2}), gain.UNDET_TO_SAT, 0.4),
    ]
    priority = gain.influencing_cluster(0, recs) == frozenset({0, 2})
    verdict_line(
        capsys, 3, mismatches == 0 and worked and priority,
        f"gain equals independent formula table on 1000 inputs "
        f"({mismatches} mismatches); worked numbers reproduce",
    )


def test_criterion_04_influencing_cluster_reference_map(capsys):
    clusters = [frozenset(s) for s in
                [{1, 4}, {1, 2, 3}, {2, 3, 4}, {2, 3}, {1, 3, 4}]]
    want = {1: frozenset({1, 3, 4}), 2: frozenset({2, 3}),
            3: frozenset({1, 3, 4}), 4: frozenset({1, 4})}
    standalone = {p: Verdict(bmc.UNDET, 10) for p in (1, 2, 3, 4)}
    runs = [
        (c, {p: Verdict(bmc.UNDET, 20 if want[p] == c else 12) for p in c})
        for c in clusters
    ]
    m = gain.build_influencing_map("d", standalone, runs)
    verdict_line(
        capsys, 4, m.influencing == want,
        "reference influencing-cluster map reproduced exactly",
    )


def test_criterion_05_assignment_optimality(capsys):
    rng = random.Random(7)
    mismatches = 0
    for trial in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        ent = tuple(tuple(rng.randint(0, 99) for _ in range(nc))
                    for _ in range(nr))
        m = online.DiffMatrix(tuple(range(nr)), tuple(range(nc)), ent)
        pm = online.associate_properties(m)
        cost = sum(ent[i][j] for i, j in pm.mapping.items())
        if cost != oracles.assignment_brute_force(ent):
            mismatches += 1
    verdict_line(
        capsys, 5, mismatches == 0,
        f"assignment equals permutation brute force on 300 matrices "
        f"({mismatches} mismatches)",
    )


def test_criterion_06_pca_threshold(capsys):
    rng = np.random.default_rng(19)
    worst = 0.0
    mismatches = 0
    for trial in range(40):
        rows = int(rng.integers(4, 40))
        dims = int(rng.integers(3, 16))
        data = rng.normal(size=(rows, dims)) * rng.uniform(0.1, 10, size=dims)
        tensors = [
            embed.EmbeddingTensor("d", i, dims, tuple(r))
            for i, r in enumerate(data)
        ]
        m = embed.fit_pca(tensors, 0.95)
        keep, ratio = oracles.pca_keep_count(data, 0.95)
        if m.num_components != keep:
            mismatches += 1
        worst = max(worst, abs(m.explained_ratio - ratio))
    verdict_line(
        capsys, 6, mismatches == 0 and worst <= 1e-9,
        f"PCA keeps the minimal component count vs independent "
        f"SVD of the centred data (worst ratio error {worst:.2e})",
    )


def test_criterion_07_clause_sharing(capsys):
    ratios = {}
    ok = True
    for k in range(2, 6):
        n = duplicated_property_family(k, width=9)
        cfg = BmcConfig(conflict_budget=600, max_frames=3, seed=0)
        single_sum = sum(
            sum(s.conflicts for s in bmc.check_single(n, p, cfg).per_frame)
            for p in range(k)
        )
        cv = bmc.check_cluster(n, range(k), cfg)
        cluster_total = sum(s.conflicts for s in cv.per_frame)
        ratios[k] = cluster_total / max(single_sum, 1)
        ok = ok and single_sum > 0 and cluster_total <= 0.8 * single_sum
    pretty = ", ".join(f"k={k}: {r:.2f}" for k, r in ratios.items())
    verdict_line(
        capsys, 7, ok,
        f"cluster conflicts <= 0.8x standalone sum on duplicated "
        f"properties ({pretty})",
    )


def test_criterion_08_undet_depth_gain(capsys):
    n = shared_coi_pair(width=9)
    cones = []
    for p in (0, 1):
        inp, lat, av = _coi_vars(n, p)
        cones.append(set(inp) | set(lat) | set(av))
    shared = len(cones[0] & cones[1]) / max(len(c) for c in cones)
    wins = 0
    for seed in range(20):
        cfg = BmcConfig(conflict_budget=400, seed=seed)
        singles = [bmc.check_single(n, p, cfg).depth for p in (0, 1)]
        cv = bmc.check_cluster(n, [0, 1], cfg)
        clustered = [cv.per_property[p].depth for p in (0, 1)]
        wins += all(c >= s for c, s in zip(clustered, singles))
    verdict_line(
        capsys, 8, shared >= 0.8 and wins >= 18,
        f"clustered UNDET depth >= standalone in {wins}/20 trials "
        f"(COI sharing {shared:.0%})",
    )


def _build_corpus(root):
    d = root / "designs"
    d.mkdir()
    (d / "ctr.aag").write_text(serialize_aiger(counter(3, (5, 6))))
    (d / "twoctr.aag").write_text(serialize_aiger(two_counters()))
    (d / "miter.aag").write_text(
        serialize_aiger(parity_miter(width=5, copies=1, variants=2))
    )
    (d / "unknown.aag").write_text(
        serialize_aiger(two_counters(bits=2, bad_a=2, bad_b=3, name="unk"))
    )
    return d


def test_criterion_09_end_to_end_determinism(capsys, tmp_path):
    designs = _build_corpus(tmp_path)
    common = ["--budget-conflicts", "300", "--max-frames", "8",
              "--mode", "init", "--seed", "3", "--patterns", "128"]
    outputs = []
    for run in ("a", "b"):
        db = tmp_path / f"db_{run}"
        camp = tmp_path / f"run_{run}"
        assert cli.main(
            ["offline", str(designs / "ctr.aag"), str(designs / "twoctr.aag"),
             str(designs / "miter.aag"), "--out-dir", str(db)] + common
        ) == cli.EXIT_OK
        assert cli.main(
            ["verify", str(designs / "unknown.aag"), "--db-dir", str(db),
             "--out-dir", str(camp), "--baseline",
             "--budget-conflicts", "300", "--max-frames", "8",
             "--mode", "init", "--seed", "3"]
        ) == cli.EXIT_OK
        outputs.append((db, camp))
    identical = True
    (db_a, camp_a), (db_b, camp_b) = outputs
    for name in ("db1.mpb", "db2.mpb", "db3.mpb", "pca.mpb"):
        identical &= filecmp.cmp(db_a / name, db_b / name, shallow=False)
    for name in sorted(os.listdir(camp_a)):
        identical &= filecmp.cmp(camp_a / name, camp_b / name, shallow=False)
    verdict_line(
        capsys, 9, identical,
        "repeated offline+verify runs are byte-identical",
    )


def test_criterion_10_roundtrips(capsys, tmp_path):
    failures = 0
    # AIGER
    for trial in range(100):
        rng = random.Random(trial)
        n = random_netlist(rng, num_bads=rng.randint(1, 3))
        text = serialize_aiger(n)
        if serialize_aiger(parse_aiger(text, name=n.name)) != text:
            failures += 1
    # the three databases
    from test_store import random_db1, random_db3

    for trial in range(100):
        rng = random.Random(10_000 + trial)
        db1 = random_db1(rng, count=4)
        db2 = [
            store.EmbeddingRecord(f"d{i}", 0,
                                  tuple(rng.random() for _ in range(4)))
            for i in range(4)
        ]
        db3 = random_db3(rng, count=3)
        for kind, recs in ((store.DB1, db1), (store.DB2, db2),
                           (store.DB3, db3)):
            path = str(tmp_path / f"{kind}_{trial}.mpb")
            store.write_db(kind, recs, path)
            if store.read_db(kind, path) != recs:
                failures += 1
    verdict_line(
        capsys, 10, failures == 0,
        f"100 AIGER and 100x3 database round-trips lossless "
        f"({failures} failures)",
    )
