"""Overlapping property-cluster families from reduced embeddings.

Partitional algorithms only produce disjoint groups, so the overlapping
family is built by unioning the partitions of k-means and k-medoids across
the whole k range (2 .. ceil(n/2)) plus the full property set, then
deduplicating by member set.  Distances are cosine on unit-normalized
vectors throughout.

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


class KOutOfRange(ValueError):
    pass


class TooFewProperties(ValueError):
    pass


@dataclass(frozen=True)
class Cluster:
    design: str
    members: frozenset
    origin: str

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("cluster needs at least 2 members")


@dataclass(frozen=True)
class ClusterFamily:
    design: str
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


def kmeans(points, k: int, seed: int = 0, max_iters: int = 100):
    """Lloyd iterations under cosine distance; returns a list of k groups."""
    n = len(points)
    if not 2 <= k <= n:
        raise KOutOfRange(f"k={k} for {n} points")
    x = _unit_rows(points)
    rng = random.Random(seed)

    # kmeans++ seeding
    centers = [x[rng.randrange(n)]]
    while len(centers) < k:
        d2 = np.min(
            np.stack([_cos_dist(x, c) for c in centers]), axis=0
        ) ** 2
        total = float(d2.sum())
        if total <= 0:
            centers.append(x[rng.randrange(n)])
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        centers.append(x[min(idx, n - 1)])
    centers = np.stack(centers)

    assign = np.zeros(n, dtype=int)
    for _ in range(max_iters):
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


def _pairwise_cos(points) -> np.ndarray:
    x = _unit_rows(points)
    d = _cos_dist(x, x)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def kmedoids(points, k: int, seed: int = 0, max_iters: int = 100):
    """PAM build + swap under cosine distance; returns a list of k groups.

    The groups partition ``range(len(points))``, but a group can be empty:
    see the assignment below.
    """
    n = len(points)
    if not 2 <= k <= n:
        raise KOutOfRange(f"k={k} for {n} points")
    d = _pairwise_cos(points)

    # build: greedy medoid additions minimizing total cost
    medoids = [int(np.argmin(d.sum(axis=1)))]
    while len(medoids) < k:
        best, best_cost = None, None
        cur = np.min(d[:, medoids], axis=1)
        for cand in range(n):
            if cand in medoids:
                continue
            cost = float(np.minimum(cur, d[:, cand]).sum())
            if best_cost is None or cost < best_cost:
                best, best_cost = cand, cost
        medoids.append(best)

    def total_cost(ms):
        return float(np.min(d[:, ms], axis=1).sum())

    # swap until no single medoid exchange improves the cost
    for _ in range(max_iters):
        improved = False
        cost = total_cost(medoids)
        for i in range(k):
            for cand in range(n):
                if cand in medoids:
                    continue
                trial = medoids.copy()
                trial[i] = cand
                c = total_cost(trial)
                if c < cost - 1e-12:
                    medoids, cost = trial, c
                    improved = True
        if not improved:
            break

    medoids = sorted(medoids)
    # each point goes to its nearest medoid, the first one on a tie; medoids
    # at distance 0 from each other (coinciding points) all lose their
    # points to the first of them, and their groups stay empty
    assign = np.argmin(d[:, medoids], axis=1)
    return [sorted(np.flatnonzero(assign == c).tolist()) for c in range(k)]


def build_family(
    design: str,
    embeddings: dict,
    seed: int = 0,
    max_clusters: int = DEFAULT_MAX_CLUSTERS,
) -> ClusterFamily:
    """Union of kmeans/kmedoids partitions over k = 2 .. ceil(n/2), plus the
    full property set; groups below size 2 are dropped."""
    props = sorted(embeddings)
    n = len(props)
    if n < 2:
        raise TooFewProperties(f"{n} properties")
    points = [embeddings[p] for p in props]

    candidates = [Cluster(design, frozenset(props), "full")]
    k_hi = max(2, math.ceil(n / 2))
    for k in range(2, k_hi + 1):
        if k > n:
            break
        for algo, fn in (("kmeans", kmeans), ("kmedoids", kmedoids)):
            for group in fn(points, k, seed=seed):
                if len(group) >= 2:
                    members = frozenset(props[i] for i in group)
                    candidates.append(Cluster(design, members, f"{algo}({k})"))

    seen = set()
    clusters = []
    for c in candidates:
        if c.members in seen:
            continue
        seen.add(c.members)
        clusters.append(c)
        if len(clusters) >= max_clusters:
            break
    return ClusterFamily(design, tuple(clusters))
