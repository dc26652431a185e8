"""Overlapping property-cluster families from reduced embeddings.

Partitional algorithms only produce disjoint groups, so the overlapping
family is built by unioning the full property set and the partitions of
k-means and k-medoids for k = 2 .. ceil(n/2), deduplicated by member set,
until it holds `max_clusters` clusters.  Distances are cosine on
unit-normalized vectors throughout.  Each design's unit rows and distance
matrix are computed once, and every k of both algorithms reads them.

Every distance is rounded to a fixed 1e-9 grid.  Builds hold many
properties with identical embeddings, so seeding, assignment and medoid
swaps break ties between equal distances; unrounded, those ties fall to
the last bits of the PCA and the chosen clusters follow the eigensolver's
rounding noise rather than the data.  Rounding the distances, not the
unit rows, keeps identical points at distance exactly 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_CLUSTERS = 64
_MAX_ITERS = 100  # Lloyd iterations and PAM swap sweeps


@dataclass(frozen=True)
class Cluster:
    members: frozenset
    origin: str

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("cluster needs at least 2 members")


@dataclass(frozen=True)
class ClusterFamily:
    clusters: tuple  # deduplicated by member set, stable order


def _unit_rows(points) -> np.ndarray:
    x = np.array([list(p) for p in points], dtype=float)
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0] = 1.0
    return x / norms[:, None]


def _cos_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine distances between the unit rows of `a` and `b` (a row or a
    matrix of rows), rounded to the 1e-9 grid."""
    return np.round(1.0 - a @ b.T, 9)


def _pairwise_cos(points):
    """The unit rows of `points` and their rounded distance matrix.  numpy
    computes ``x @ x.T`` as a symmetric product, so the matrix is exactly
    symmetric: row c holds the distances to point c."""
    x = _unit_rows(points)
    d = _cos_dist(x, x)
    np.fill_diagonal(d, 0.0)
    return x, np.maximum(d, 0.0)


def kmeans(x: np.ndarray, d: np.ndarray, k: int, seed: int):
    """Lloyd iterations under cosine distance on the unit rows `x`, seeded
    by k-means++ over their distance matrix `d`; returns a list of k
    groups."""
    n = len(x)
    if not 2 <= k <= n:
        raise ValueError(f"k={k} for {n} points")
    rng = random.Random(seed)

    # kmeans++ seeding: d2 is each point's squared distance to its nearest
    # centre so far
    idx = rng.randrange(n)
    chosen, d2 = [idx], d[:, idx] ** 2
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0:
            idx = rng.randrange(n)
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r)), n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, d[:, idx] ** 2)
    centers = x[chosen]

    assign = np.zeros(n, dtype=int)
    for _ in range(_MAX_ITERS):
        dists = _cos_dist(x, centers)
        new_assign = np.argmin(dists, axis=1)
        # repair empty clusters with the globally farthest point
        for c in range(k):
            if not np.any(new_assign == c):
                far = int(np.argmax(dists[np.arange(n), new_assign]))
                new_assign[far] = c
        if np.array_equal(new_assign, assign) and _ != 0:
            break
        assign = new_assign
        for c in range(k):
            members = x[assign == c]
            if not len(members):
                continue  # emptied by the repair above; keep its centre
            m = members.mean(axis=0)
            norm = np.linalg.norm(m)
            if norm > 0:
                centers[c] = m / norm
    return [sorted(np.flatnonzero(assign == c).tolist()) for c in range(k)]


def kmedoids(d: np.ndarray, k: int):
    """PAM build + swap over the distance matrix `d`; returns a list of k
    groups.

    Candidate c costs row c of ``np.minimum(rest, d)`` summed, where
    `rest` is each point's distance to the medoids that stay.  Row sums add
    as ``d[:, c].sum()`` does; column sums add in another order, whose last
    bits can break ties differently.  The groups partition
    ``range(len(d))``, but a group can be empty: see the assignment below.
    """
    n = len(d)
    if not 2 <= k <= n:
        raise ValueError(f"k={k} for {n} points")

    # build: greedy medoid additions minimizing total cost
    medoids = [int(np.argmin(d.sum(axis=1)))]
    while len(medoids) < k:
        cost = np.minimum(d[:, medoids].min(axis=1), d).sum(axis=1)
        cost[medoids] = np.inf
        medoids.append(int(np.argmin(cost)))

    # swap until no single medoid exchange improves the cost.  A slot's
    # candidate costs do not depend on the medoid it holds, so each slot
    # scores all candidates at once and takes, in index order, every one
    # that beats the best so far by more than 1e-12
    best = float(d[:, medoids].min(axis=1).sum())
    for _ in range(_MAX_ITERS):
        improved = False
        for i in range(k):
            rest = d[:, medoids[:i] + medoids[i + 1:]].min(axis=1)
            cost = np.minimum(rest, d).sum(axis=1)
            cost[medoids] = np.inf
            for cand, c in enumerate(cost.tolist()):
                if c < best - 1e-12:
                    medoids[i], best = cand, c
                    improved = True
        if not improved:
            break

    medoids = sorted(medoids)
    # each point goes to its nearest medoid, the first one on a tie; medoids
    # at distance 0 from each other (coinciding points) all lose their
    # points to the first of them, and their groups stay empty
    assign = np.argmin(d[:, medoids], axis=1)
    return [sorted(np.flatnonzero(assign == c).tolist()) for c in range(k)]


def _candidates(props, x, d, seed):
    """The full property set, then the groups of size 2 or more of the
    kmeans and kmedoids partitions for k = 2 .. ceil(n/2), in that order.
    Lazy: a partition is computed only when its first group is asked for."""
    yield Cluster(frozenset(props), "full")
    k_hi = max(2, math.ceil(len(props) / 2))
    for k in range(2, k_hi + 1):  # k_hi <= n, as n >= 2
        for algo in ("kmeans", "kmedoids"):
            groups = (kmeans(x, d, k, seed) if algo == "kmeans"
                      else kmedoids(d, k))
            for group in groups:
                if len(group) >= 2:
                    members = frozenset(props[i] for i in group)
                    yield Cluster(members, f"{algo}({k})")


def build_family(
    embeddings: dict,
    seed: int = 0,
    max_clusters: int = DEFAULT_MAX_CLUSTERS,
) -> ClusterFamily:
    """The first `max_clusters` distinct member sets among the candidates:
    the full property set, then the kmeans/kmedoids partitions over
    k = 2 .. ceil(n/2), groups below size 2 dropped.

    Each partition seeds its own generator, so computing none past the one
    that fills the cap changes no cluster; the PAM swaps of every larger k
    would cost O(k n^2) each.
    """
    props = sorted(embeddings)
    n = len(props)
    if n < 2:
        raise ValueError(f"{n} properties")
    x, d = _pairwise_cos([embeddings[p] for p in props])

    seen = set()
    clusters = []
    for c in _candidates(props, x, d, seed):
        if c.members in seen:
            continue
        seen.add(c.members)
        clusters.append(c)
        if len(clusters) >= max_clusters:
            break
    return ClusterFamily(tuple(clusters))
