import math
import random
import time
import warnings

import numpy as np
import pytest

from clusterbmc import circuits, clusterer, embed

from oracles import family_reference, kmeans_reference, kmedoids_reference


def kmeans(pts, k, seed=0):
    x, d = clusterer._pairwise_cos(pts)
    return clusterer.kmeans(x, d, k, seed)


def kmedoids(pts, k, seed=0):
    """PAM draws nothing: `seed` is taken only to match kmeans."""
    return clusterer.kmedoids(clusterer._pairwise_cos(pts)[1], k)


def unit(v):
    a = np.asarray(v, dtype=float)
    n = np.linalg.norm(a)
    return a / n if n else a


def cos_cost_kmeans(points, groups):
    total = 0.0
    for g in groups:
        if not g:
            continue
        rows = np.stack([unit(points[i]) for i in g])
        c = rows.mean(axis=0)
        c = unit(c)
        total += float((1.0 - rows @ c).sum())
    return total


def test_antipodal_separation():
    pts = [(1, 0), (0.95, 0.05), (-1, 0), (-0.9, -0.1)]
    for fn in (kmeans, kmedoids):
        groups = sorted(fn(pts, 2, seed=0))
        assert groups == [[0, 1], [2, 3]]


def test_k_equals_n_singletons():
    pts = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    groups = kmeans(pts, 4, seed=2)
    assert sorted(len(g) for g in groups) == [1, 1, 1, 1]


def test_partition_validity():
    rng = np.random.default_rng(4)
    pts = [tuple(r) for r in rng.normal(size=(9, 3))]
    for fn in (kmeans, kmedoids):
        for k in (2, 3, 4):
            groups = fn(pts, k, seed=1)
            flat = sorted(i for g in groups for i in g)
            assert flat == list(range(9))


def test_determinism():
    rng = np.random.default_rng(6)
    pts = [tuple(r) for r in rng.normal(size=(8, 4))]
    for fn in (kmeans, kmedoids):
        assert fn(pts, 3, seed=9) == fn(pts, 3, seed=9)


def test_kmeans_one_move_stability():
    # the converged partition should not improve by moving any single point
    rng = np.random.default_rng(12)
    pts = [tuple(r) for r in rng.normal(size=(7, 3))]
    groups = kmeans(pts, 2, seed=0)
    base = cos_cost_kmeans(pts, groups)
    for src in range(2):
        for dst in range(2):
            if src == dst:
                continue
            for p in groups[src]:
                if len(groups[src]) == 1:
                    continue
                trial = [list(g) for g in groups]
                trial[src].remove(p)
                trial[dst].append(p)
                assert cos_cost_kmeans(pts, trial) >= base - 1e-9


def test_kmedoids_swap_stability():
    rng = np.random.default_rng(13)
    pts = [tuple(r) for r in rng.normal(size=(8, 3))]
    _x, d = clusterer._pairwise_cos(pts)
    groups = kmedoids(pts, 3)

    def cost(medoids):
        return float(np.min(d[:, list(medoids)], axis=1).sum())

    # recover the medoids: the point in each group minimizing in-group cost
    # is not stored, so check stability at the partition level instead:
    # every medoid triple drawn one-per-group is no worse than the best
    # achievable by swapping a single member in
    medoids = [min(g, key=lambda i: d[np.ix_(g, [i])].sum()) for g in groups]
    base = cost(medoids)
    for i in range(3):
        for cand in range(8):
            if cand in medoids:
                continue
            trial = list(medoids)
            trial[i] = cand
            assert cost(trial) >= base - 1e-9


def test_separated_triples_medoids():
    pts = [(1, 0.01 * i, 0) for i in range(3)] + [(0, 0.01 * i, 1) for i in range(3)]
    groups = sorted(kmedoids(pts, 2))
    assert groups == [[0, 1, 2], [3, 4, 5]]


def test_identical_points_zero_cost():
    pts = [(1.0, 1.0)] * 5
    groups = kmedoids(pts, 2)
    _x, d = clusterer._pairwise_cos(pts)
    assert float(d.sum()) == pytest.approx(0.0, abs=1e-12)
    assert sorted(i for g in groups for i in g) == list(range(5))


def test_kmedoids_coinciding_medoids_leave_empty_groups():
    # two of the three medoids coincide: ties go to the first of them
    pts = [(1, 0)] * 3 + [(0, 1)]
    assert kmedoids(pts, 3) == [[0, 1, 2], [], [3]]
    pts = [(1, 0)] * 3 + [(0, 1)] * 2
    groups = kmedoids(pts, 3)
    assert [] in groups
    assert sorted(i for g in groups for i in g) == list(range(5))
    # Cluster() rejects a group below two members, so building the family
    # proves that build_family drops the empty group
    fam = clusterer.build_family(dict(enumerate(pts)), seed=0)
    assert all(len(c.members) >= 2 for c in fam.clusters)


def test_k_out_of_range():
    pts = [(1, 0), (0, 1)]
    for fn in (kmeans, kmedoids):
        with pytest.raises(ValueError, match="k=1 for 2 points"):
            fn(pts, 1, seed=0)
        with pytest.raises(ValueError, match="k=3 for 2 points"):
            fn(pts, 3, seed=0)


def test_family_two_properties():
    fam = clusterer.build_family({0: (1, 0), 1: (0, 1)}, seed=0)
    assert [sorted(c.members) for c in fam.clusters] == [[0, 1]]


def test_family_contains_pairs_and_full_set():
    emb = {0: (1, 0), 1: (0.99, 0.01), 2: (0, 1), 3: (0.01, 0.99)}
    fam = clusterer.build_family(emb, seed=0)
    sets = {frozenset(c.members) for c in fam.clusters}
    assert frozenset({0, 1}) in sets
    assert frozenset({2, 3}) in sets
    assert frozenset({0, 1, 2, 3}) in sets
    for c in fam.clusters:
        assert 2 <= len(c.members) <= 4


def test_family_determinism_and_k_range():
    rng = np.random.default_rng(3)
    emb = {i: tuple(r) for i, r in enumerate(rng.normal(size=(10, 4)))}
    a = clusterer.build_family(emb, seed=5)
    b = clusterer.build_family(emb, seed=5)
    assert [c.members for c in a.clusters] == [c.members for c in b.clusters]
    ks = {
        int(c.origin.split("(")[1][:-1])
        for c in a.clusters if "(" in c.origin
    }
    assert ks and max(ks) <= math.ceil(10 / 2)


def test_family_cap():
    rng = np.random.default_rng(7)
    emb = {i: tuple(r) for i, r in enumerate(rng.normal(size=(12, 3)))}
    fam = clusterer.build_family(emb, seed=0, max_clusters=4)
    assert len(fam.clusters) == 4
    # the full set survives the cap (it is added first)
    assert frozenset(range(12)) in {c.members for c in fam.clusters}


def test_too_few_properties():
    with pytest.raises(ValueError, match="1 properties"):
        clusterer.build_family({0: (1.0,)}, seed=0)


def test_kmeans_empty_group_is_not_averaged():
    # the empty-group repair empties group 2; its centre must stay put
    # without averaging an empty slice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        groups = kmeans([(1, 0)] * 3 + [(0, 1)], 4)
    assert groups == [[3], [1, 2], [], [0]]


def test_family_ignores_rounding_noise():
    # projected embeddings of random designs hold many identical pairs;
    # noise far below the distance grid must not change any family
    rng = random.Random(101)
    nets = [circuits.random_netlist(rng, num_bads=rng.randint(4, 10),
                                    name=f"d{i}") for i in range(12)]
    tensors = [embed.coi_signature(n, p, patterns=1024, seed=101)
               for n in nets for p in range(n.num_properties)]
    pca = embed.fit_pca(tensors)
    reduced = {}
    for t in tensors:
        reduced.setdefault(t.design, {})[t.property] = embed.project(pca, t)
    noise = np.random.default_rng(0)
    for name, emb in reduced.items():
        noisy = {p: tuple(np.asarray(v) + noise.normal(0, 1e-14, len(v)))
                 for p, v in emb.items()}
        want = clusterer.build_family(emb, seed=101).clusters
        got = clusterer.build_family(noisy, seed=101).clusters
        assert [c.members for c in got] == [c.members for c in want], name


def random_point_sets(count, seed, zero_rows):
    """Small point sets that force ties: duplicated rows, and coordinates
    rounded to 0-2 decimals.  `zero_rows` selects the sets
    that hold an all-zero row, or those that hold none."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n, m = int(rng.integers(2, 13)), int(rng.integers(1, 5))
        pts = np.round(rng.normal(size=(n, m)), int(rng.integers(0, 3)))
        pts[rng.integers(0, n, size=n // 2)] = pts[rng.integers(0, n, size=n // 2)]
        if (~pts.any(axis=1)).any() == zero_rows:
            out.append([tuple(r) for r in pts])
    return out


def test_clusterers_match_reference():
    for t, pts in enumerate(random_point_sets(300, 22, zero_rows=False)):
        x, d = clusterer._pairwise_cos(pts)
        assert np.array_equal(d, d.T)
        for k in range(2, len(pts) + 1):
            assert clusterer.kmeans(x, d, k, t) == kmeans_reference(pts, k, t)
            assert clusterer.kmedoids(d, k) == kmedoids_reference(pts, k)


def test_zero_rows_are_at_distance_0_from_themselves():
    # the reference's seeding put a zero row at distance 1 from itself, so
    # k-means++ could draw a zero-row centre twice; the matrix diagonal is
    # 0, so a drawn centre has weight 0.  Only kmeans seeding read that
    # distance: kmedoids still matches the reference
    for pts in random_point_sets(100, 23, zero_rows=True):
        x, d = clusterer._pairwise_cos(pts)
        assert not d.diagonal().any()
        for k in range(2, len(pts) + 1):
            groups = clusterer.kmeans(x, d, k, k)
            assert sorted(i for g in groups for i in g) == list(range(len(pts)))
            assert clusterer.kmedoids(d, k) == kmedoids_reference(pts, k)


def test_family_computes_distances_once(monkeypatch):
    calls, pairwise = [], clusterer._pairwise_cos

    def counted(points):
        calls.append(len(points))
        return pairwise(points)

    monkeypatch.setattr(clusterer, "_pairwise_cos", counted)
    emb = {i: (math.cos(i), math.sin(i), 0.5) for i in range(9)}
    clusterer.build_family(emb, seed=3)
    assert calls == [9]


def test_family_stops_at_the_cap_as_the_full_sweep_would():
    # caps below, at and far above what each family reaches; duplicated
    # rows make partitions repeat member sets, so the dedup decides too
    rng = np.random.default_rng(46)
    for t in range(40):
        n = int(rng.integers(2, 61))
        pts = rng.normal(size=(n, int(rng.integers(1, 17))))
        copies = rng.integers(0, n, size=(2, n // 3))
        pts[copies[0]] = pts[copies[1]]
        emb = {i: tuple(r) for i, r in enumerate(pts)}
        full = family_reference(emb, t)
        for cap in (1, 2, 5, 17, 64, 10_000):
            got = clusterer.build_family(emb, seed=t, max_clusters=cap)
            assert list(got.clusters) == full[:cap], (t, n, cap)


def test_family_of_400_properties_stops_at_the_cap(monkeypatch):
    # the full sweep runs PAM for every k up to 200: 31 s on a 2-core
    # x86-64 host; the capped family computes partitions in candidate
    # order up to the one that fills the cap, and none after it
    computed = []
    kmeans, kmedoids = clusterer.kmeans, clusterer.kmedoids
    monkeypatch.setattr(clusterer, "kmeans", lambda x, d, k, seed: (
        computed.append(f"kmeans({k})") or kmeans(x, d, k, seed)))
    monkeypatch.setattr(clusterer, "kmedoids", lambda d, k: (
        computed.append(f"kmedoids({k})") or kmedoids(d, k)))
    rng = np.random.default_rng(1)
    emb = {i: tuple(r) for i, r in enumerate(rng.normal(size=(400, 16)))}
    start = time.perf_counter()
    fam = clusterer.build_family(emb, seed=1)
    seconds = time.perf_counter() - start
    assert len(fam.clusters) == clusterer.DEFAULT_MAX_CLUSTERS
    last = fam.clusters[-1].origin
    k_last = int(last[last.index("(") + 1:-1])
    order = [f"{algo}({k})" for k in range(2, k_last + 1)
             for algo in ("kmeans", "kmedoids")]
    assert computed == order[:order.index(last) + 1]
    assert k_last < 200, k_last
    # loose: 0.05 s measured on that host
    assert seconds < 2.0
