"""Verification-status transitions and their gain metric.

Comparing a property's standalone run against a cluster run gives one of
six ranked transitions.  Each transition carries a scalar gain; per
property, the cluster with the lexicographically best (rank, value) record
is its "influencing cluster" and what the third database remembers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bmc import SAT, UNSAT, UNDET

UNDET_TO_SAT = "UNDET_TO_SAT"
UNDET_TO_UNSAT = "UNDET_TO_UNSAT"
SAT_TO_SAT = "SAT_TO_SAT"
UNSAT_TO_UNSAT = "UNSAT_TO_UNSAT"
UNDET_TO_UNDET = "UNDET_TO_UNDET"
SAT_TO_UNDET = "SAT_TO_UNDET"
UNSAT_TO_UNDET = "UNSAT_TO_UNDET"

# Higher is better.  The two full-resolution transitions share the top
# rank; the time-saving pair shares the next one.
RANK = {
    UNDET_TO_SAT: 5,
    UNDET_TO_UNSAT: 5,
    SAT_TO_SAT: 4,
    UNSAT_TO_UNSAT: 4,
    UNDET_TO_UNDET: 3,
    SAT_TO_UNDET: 2,
    UNSAT_TO_UNDET: 1,
}


class NoRecords(ValueError):
    pass


class MissingStandaloneVerdict(KeyError):
    pass


@dataclass(frozen=True)
class GainRecord:
    property: int
    cluster: frozenset
    transition: str
    value: float
    degenerate: bool = False


_TRANSITIONS = {
    (UNDET, SAT): UNDET_TO_SAT,
    (UNDET, UNSAT): UNDET_TO_UNSAT,
    (SAT, SAT): SAT_TO_SAT,
    (UNSAT, UNSAT): UNSAT_TO_UNSAT,
    (UNDET, UNDET): UNDET_TO_UNDET,
    (SAT, UNDET): SAT_TO_UNDET,
    (UNSAT, UNDET): UNSAT_TO_UNDET,
}


def classify(standalone, clustered) -> str:
    """Transition of one property's status from standalone to cluster run."""
    pair = (standalone.status, clustered.status)
    if pair not in _TRANSITIONS:
        # (SAT, UNSAT) or (UNSAT, SAT): a counterexample and a proof for the
        # same property, which only an unsound harness can produce
        raise AssertionError(f"contradictory verdicts {pair[0]} and {pair[1]}")
    return _TRANSITIONS[pair]


def compute_gain(transition, standalone, clustered, cluster_size: int,
                 property_index: int = 0, cluster=frozenset()) -> GainRecord:
    """Scalar gain for one transition.

    Full resolutions inside the cluster score t_c/n (n co-properties);
    resolutions present in both runs score the time saving (t_s - t_c)/t_s;
    still-undetermined outcomes score the relative depth change
    (d_c - d_s)/d_s.  Degenerate divisors give value 0 with a flag.
    """
    if cluster_size < 2:
        raise ValueError("cluster_size must be >= 2")
    degenerate = False
    if transition in (UNDET_TO_SAT, UNDET_TO_UNSAT):
        value = clustered.elapsed / (cluster_size - 1)
    elif transition in (SAT_TO_SAT, UNSAT_TO_UNSAT):
        t_s = standalone.elapsed
        if t_s <= 0:
            value, degenerate = 0.0, True
        else:
            value = (t_s - clustered.elapsed) / t_s
    elif transition in (UNDET_TO_UNDET, SAT_TO_UNDET, UNSAT_TO_UNDET):
        d_s = standalone.depth
        if d_s <= 0:
            value, degenerate = 0.0, True
        else:
            value = (clustered.depth - d_s) / d_s
    else:
        raise ValueError(f"unknown transition {transition!r}")
    return GainRecord(
        property=property_index,
        cluster=frozenset(cluster),
        transition=transition,
        value=float(value),
        degenerate=degenerate,
    )


def _selection_key(r: GainRecord):
    # maximize rank, then value; break ties toward the smaller cluster and
    # then the lexicographically smallest member set
    members = tuple(sorted(r.cluster))
    return (-RANK[r.transition], -r.value, len(members), members)


def influencing_cluster(property_index: int, records) -> frozenset:
    mine = [r for r in records if r.property == property_index]
    if not mine:
        raise NoRecords(f"no gain records for property {property_index}")
    return min(mine, key=_selection_key).cluster


@dataclass(frozen=True)
class InfluencingClusterMap:
    design: str
    influencing: dict  # property -> frozenset or None
    records: dict      # property -> list of GainRecord


def build_influencing_map(design: str, standalone: dict,
                          cluster_runs) -> InfluencingClusterMap:
    """Select the influencing cluster of every property.

    `standalone` maps property -> Verdict; `cluster_runs` is an iterable of
    (member set, per-property Verdict dict).  Properties in no cluster map
    to None.
    """
    records: dict = {p: [] for p in standalone}
    for members, verdicts in cluster_runs:
        members = frozenset(members)
        for p in sorted(members):
            if p not in standalone:
                raise MissingStandaloneVerdict(p)
            if p not in verdicts:
                continue
            tr = classify(standalone[p], verdicts[p])
            records[p].append(
                compute_gain(
                    tr, standalone[p], verdicts[p], len(members),
                    property_index=p, cluster=members,
                )
            )
    influencing = {
        p: (influencing_cluster(p, rs) if rs else None)
        for p, rs in records.items()
    }
    return InfluencingClusterMap(
        design=design,
        influencing=influencing,
        records=records,
    )
