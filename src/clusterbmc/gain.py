"""Verification-status transitions and their gain metric.

Comparing a property's standalone run against a cluster run gives one of
four ranked transitions.  Each transition carries a scalar gain, and
`score` gives both for one pair of verdicts.  Per property, the cluster
with the lexicographically best (rank, value) record is its "influencing
cluster" and what the third database remembers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bmc import SAT, UNDET

UNDET_TO_SAT = "UNDET_TO_SAT"
SAT_TO_SAT = "SAT_TO_SAT"
UNDET_TO_UNDET = "UNDET_TO_UNDET"
SAT_TO_UNDET = "SAT_TO_UNDET"

# Higher is better: a counterexample only the cluster run found, one both
# runs found, one neither found, and one the cluster run lost.
RANK = {
    UNDET_TO_SAT: 5,
    SAT_TO_SAT: 4,
    UNDET_TO_UNDET: 3,
    SAT_TO_UNDET: 2,
}


@dataclass(frozen=True)
class GainRecord:
    """A cluster's gain for the property whose records hold it."""

    cluster: frozenset
    transition: str
    value: float
    degenerate: bool = False


_TRANSITIONS = {
    (UNDET, SAT): UNDET_TO_SAT,
    (SAT, SAT): SAT_TO_SAT,
    (UNDET, UNDET): UNDET_TO_UNDET,
    (SAT, UNDET): SAT_TO_UNDET,
}


def classify(standalone, clustered) -> str:
    """Transition of one property's status from standalone to cluster run.

    Both runs check the same frames in order, so two SAT depths are equal
    and an UNDET run refuted only frames below the other's SAT depth;
    anything else means an unsound search, and raises AssertionError.
    """
    runs = (standalone, clustered)
    sat = {v.depth for v in runs if v.status == SAT}
    refuted = [v.depth for v in runs if v.status == UNDET]
    if len(sat) > 1 or any(r >= d for r in refuted for d in sat):
        raise AssertionError("contradictory verdicts " + " and ".join(
            f"{v.status}@{v.depth}" for v in runs))
    return _TRANSITIONS[(standalone.status, clustered.status)]


def compute_gain(transition, standalone, clustered, cluster) -> GainRecord:
    """Scalar gain for one transition in the cluster of members `cluster`.

    Full resolutions inside the cluster score t_c/n (n co-properties);
    resolutions present in both runs score the time saving (t_s - t_c)/t_s;
    still-undetermined outcomes score the relative depth change
    (d_c - d_s)/d_s.  Degenerate divisors give value 0 with a flag.
    Only t_c/n reads n = len(cluster), so only a full resolution needs
    n >= 2.
    """
    cluster = frozenset(cluster)
    degenerate = False
    if transition == UNDET_TO_SAT:
        if len(cluster) < 2:
            raise ValueError("cluster must have at least 2 members")
        value = clustered.elapsed / (len(cluster) - 1)
    elif transition == SAT_TO_SAT:
        t_s = standalone.elapsed
        if t_s <= 0:
            value, degenerate = 0.0, True
        else:
            value = (t_s - clustered.elapsed) / t_s
    elif transition in (UNDET_TO_UNDET, SAT_TO_UNDET):
        d_s = standalone.depth
        if d_s <= 0:
            value, degenerate = 0.0, True
        else:
            value = (clustered.depth - d_s) / d_s
    else:
        raise ValueError(f"unknown transition {transition!r}")
    return GainRecord(
        cluster=cluster,
        transition=transition,
        value=float(value),
        degenerate=degenerate,
    )


def score(design: str, p: int, members, standalone,
          clustered) -> GainRecord:
    """Gain record of property `p` of `design` in the cluster `members`:
    its transition from the `standalone` to the `clustered` verdict, and
    that transition's gain.  A contradiction's message names the design,
    the property and the members."""
    try:
        transition = classify(standalone, clustered)
    except AssertionError as e:
        raise AssertionError(
            f"design {design} property {p} cluster "
            f"{' '.join(map(str, sorted(members)))}: {e}") from None
    return compute_gain(transition, standalone, clustered, members)


def _selection_key(r: GainRecord):
    # maximize rank, then value; break ties toward the smaller cluster and
    # then the lexicographically smallest member set
    members = tuple(sorted(r.cluster))
    return (-RANK[r.transition], -r.value, len(members), members)


def influencing_cluster(records) -> frozenset:
    """Cluster of the best of one property's gain records."""
    return min(records, key=_selection_key).cluster


@dataclass(frozen=True)
class InfluencingClusterMap:
    influencing: dict  # property -> frozenset or None
    records: dict      # property -> list of GainRecord


def build_influencing_map(design: str, standalone: dict,
                          cluster_runs) -> InfluencingClusterMap:
    """Select the influencing cluster of every property.

    `standalone` maps property -> Verdict; `cluster_runs` is an iterable of
    (member set, per-property Verdict dict) that holds a verdict for every
    member.  Properties in no cluster map to None.
    """
    records: dict = {p: [] for p in standalone}
    for members, verdicts in cluster_runs:
        for p in sorted(members):
            records[p].append(
                score(design, p, members, standalone[p], verdicts[p]))
    influencing = {p: (influencing_cluster(rs) if rs else None)
                   for p, rs in records.items()}
    return InfluencingClusterMap(influencing, records)
