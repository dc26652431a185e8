"""Online phase: verify an unknown design by borrowing cluster knowledge.

Pipeline: prune DB1 candidates to designs with a similar property count,
pick the structurally closest design B, associate B's properties with the
unknown's through a minimum-cost assignment over COI-size differences,
rewrite B's influencing clusters through that association, then spend the
budget on the converted clusters (leftover properties run standalone).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import bmc, parallel
from .gain import classify, compute_gain
from .netlist import Netlist, extract_coi
from .store import DesignRecord, PropertyEntry, query_db1_by_property_count

log = logging.getLogger(__name__)

# rectangular assignment pads with this sentinel; anything matched to a pad
# stays unmapped
_SENTINEL = 10 ** 9


class EmptyDatabase(ValueError):
    pass


class EmptyAfterPruning(ValueError):
    pass


def default_delta(property_count: int) -> int:
    return max(5, math.ceil(0.2 * property_count))


@dataclass(frozen=True)
class DiffMatrix:
    rows: tuple      # properties of the known design B
    cols: tuple      # properties of the unknown design
    entries: tuple   # entries[i][j], non-negative


@dataclass(frozen=True)
class PropertyMap:
    mapping: dict    # B property -> unknown property (injective)
    unmapped: tuple  # B properties without a partner


def unknown_record(n: Netlist, design: str = "", verdicts=None) -> DesignRecord:
    """DB1 record of a netlist: per-property COI sizes with the standalone
    verdicts in `verdicts` (property -> Verdict), or UNDET at depth -1 for
    a design not yet verified."""
    props = []
    for p in range(n.num_properties):
        c = extract_coi(n, p)
        v = verdicts[p] if verdicts is not None else bmc.Verdict(bmc.UNDET, -1)
        props.append(
            PropertyEntry(c.coi_inputs, c.coi_latches, c.coi_ands,
                          v.status, v.depth, v.elapsed)
        )
    return DesignRecord(design or n.name or "unknown", n.num_inputs,
                        n.num_latches, n.num_ands, tuple(props))


def select_similar_design(db1_records, unknown: DesignRecord,
                          delta: int | None = None) -> str:
    """Closest design by L1 structural distance within the pruned set.

    Pruning keeps designs whose property count lies strictly within
    (P_U - delta, P_U + delta); an empty result doubles delta and retries
    instead of failing.
    """
    if not db1_records:
        raise EmptyDatabase("DB1 has no designs")
    p_u = unknown.property_count
    if delta is None:
        delta = default_delta(p_u)
    if delta < 1:
        raise ValueError(f"delta must be at least 1, not {delta}")
    candidates = []
    while not candidates:
        ids = set(query_db1_by_property_count(db1_records, p_u - delta, p_u + delta))
        candidates = [r for r in db1_records if r.design in ids]
        if not candidates:
            if delta > 2 * max(p_u, max(r.property_count for r in db1_records)):
                raise EmptyAfterPruning(f"no candidates even at delta={delta}")
            log.warning("pruning empty at delta=%d; widening to %d", delta, 2 * delta)
            delta *= 2
    fu = unknown.feature_vector()

    def distance(r):
        return sum(abs(a - b) for a, b in zip(r.feature_vector(), fu))

    return min(candidates, key=lambda r: (distance(r), r.design)).design


def build_diff_matrix(b: DesignRecord, u: DesignRecord) -> DiffMatrix:
    """Pairwise L1 distance over per-property COI sizes: entries[i][j]
    compares property i of the known design `b` with property j of the
    unknown's record `u`."""
    entries = tuple(
        tuple(
            abs(bp.coi_inputs - up.coi_inputs)
            + abs(bp.coi_latches - up.coi_latches)
            + abs(bp.coi_ands - up.coi_ands)
            for up in u.props
        )
        for bp in b.props
    )
    return DiffMatrix(
        rows=tuple(range(len(b.props))),
        cols=tuple(range(len(u.props))),
        entries=entries,
    )


def associate_properties(m: DiffMatrix) -> PropertyMap:
    """Injective B-property -> unknown-property map of minimal total cost."""
    nr, nc = len(m.rows), len(m.cols)
    if nr == 0 or nc == 0:
        return PropertyMap({}, tuple(m.rows))
    size = max(nr, nc)
    cost = np.full((size, size), _SENTINEL, dtype=float)
    for i in range(nr):
        for j in range(nc):
            cost[i, j] = m.entries[i][j]
    rows, cols = linear_sum_assignment(cost)
    mapping = {}
    for i, j in zip(rows, cols):
        if i < nr and j < nc:
            mapping[m.rows[i]] = m.cols[j]
    unmapped = tuple(r for k, r in enumerate(m.rows) if m.rows[k] not in mapping)
    return PropertyMap(mapping, unmapped)


def convert_clusters(influencing_clusters, prop_map: PropertyMap):
    """Rewrite cluster member sets through the association.

    Unmapped members are dropped individually; clusters falling below two
    members are discarded; the result is deduplicated, deterministically
    ordered by (size, members).
    """
    converted = []
    seen = set()
    for members in influencing_clusters:
        mapped = frozenset(
            prop_map.mapping[p] for p in members if p in prop_map.mapping
        )
        if len(mapped) < len(members):
            log.warning(
                "cluster %s: dropped %d unmapped member(s)",
                sorted(members), len(members) - len(mapped),
            )
        if len(mapped) < 2 or mapped in seen:
            continue
        seen.add(mapped)
        converted.append(mapped)
    return sorted(converted, key=lambda c: (len(c), tuple(sorted(c))))


@dataclass
class PropertyRow:
    property: int
    cluster: tuple | None   # sorted members, None for standalone
    status: str
    depth: int
    elapsed: float
    baseline_status: str | None = None
    baseline_depth: int | None = None
    baseline_elapsed: float | None = None
    transition: str | None = None
    gain: float | None = None


@dataclass
class CampaignReport:
    unknown: str
    matched: str
    rows: list = field(default_factory=list)
    cluster_runs: list = field(default_factory=list)  # (members, per_frame)

    def render(self) -> str:
        out = [f"campaign {self.unknown} matched={self.matched}"]
        out.append(
            "property|cluster|status|depth|elapsed"
            "|baseline_status|baseline_depth|baseline_elapsed|transition|gain"
        )
        for r in sorted(self.rows, key=lambda r: r.property):
            cluster = " ".join(map(str, r.cluster)) if r.cluster else "-"
            base = [
                r.baseline_status if r.baseline_status is not None else "-",
                "-" if r.baseline_depth is None else str(r.baseline_depth),
                "-" if r.baseline_elapsed is None else repr(r.baseline_elapsed),
                r.transition if r.transition is not None else "-",
                "-" if r.gain is None else repr(r.gain),
            ]
            out.append(
                f"{r.property}|{cluster}|{r.status}|{r.depth}|{r.elapsed!r}|"
                + "|".join(base)
            )
        return "\n".join(out) + "\n"


def verify_unknown(
    unknown: Netlist,
    db1_records,
    db3_records,
    cfg: bmc.BmcConfig,
    delta: int | None = None,
    baseline: bool = False,
    design: str = "",
) -> CampaignReport:
    """Algorithm for the full online phase; every property gets one verdict.

    The unknown's record (COI sizes, each cone extracted once) picks the
    closest DB1 design and is associated with it; that design's DB3
    influencing clusters are converted through the association.  Each
    converted cluster is charged the per-property budget times the number
    of still-unverified properties it claims, so the campaign total stays
    within budget x property count; with a frame bound alone it runs
    unbudgeted.  Properties no cluster claims run standalone.

    `baseline` adds each property's standalone verdict, transition and
    gain.  Unclaimed properties already ran standalone, so their verdicts
    are reused; only clustered properties run `check_single` again.
    Properties with one bad literal share one standalone run.

    Which properties a cluster claims follows from member lists alone, so
    every run is planned first and the runs go through one `parallel.map2`
    call, each costed by its budget multiplier (its member count).
    """
    u_rec = unknown_record(unknown, design)
    matched = select_similar_design(db1_records, u_rec, delta)
    b_rec = next(r for r in db1_records if r.design == matched)
    prop_map = associate_properties(build_diff_matrix(b_rec, u_rec))

    influencing = []
    seen = set()
    for r in db3_records:
        if r.design == matched and r.influencing not in seen:
            seen.add(r.influencing)
            influencing.append(r.influencing)
    clusters = convert_clusters(influencing, prop_map)

    claimed: set = set()
    planned = []   # (sorted members, properties the run answers, budget)
    per_prop_budget = cfg.conflict_budget if cfg.deterministic else cfg.time_budget
    for members in clusters:
        new = sorted(set(members) - claimed)
        if not new:
            continue
        total = None if per_prop_budget is None else per_prop_budget * len(new)
        planned.append((tuple(sorted(members)), new, total))
        claimed.update(new)
    unclaimed = [p for p in range(unknown.num_properties) if p not in claimed]
    singles = unclaimed + (sorted(claimed) if baseline else [])
    owner = bmc.single_run_owners(unknown, singles)
    owners = list(dict.fromkeys(owner.values()))
    jobs = ([partial(bmc.run_with_budget, unknown, list(members), cfg, total)
             for members, _new, total in planned]
            + [partial(bmc.check_single, unknown, q, cfg) for q in owners])
    costs = ([len(members) for members, _new, _total in planned]
             + [1] * len(owners))
    results = parallel.map2(lambda run: run(), jobs, costs)

    report = CampaignReport(unknown=u_rec.design, matched=matched)
    for (members, new, _total), run in zip(planned, results):
        report.cluster_runs.append((members, run.per_frame))
        for p in new:
            v = run.per_property[p]
            report.rows.append(PropertyRow(p, members, v.status, v.depth, v.elapsed))
    runs = dict(zip(owners, results[len(planned):]))
    standalone = {p: runs[q] for p, q in owner.items()}
    for p in unclaimed:
        v = standalone[p]
        report.rows.append(PropertyRow(p, None, v.status, v.depth, v.elapsed))

    if baseline:
        by_prop = {r.property: r for r in report.rows}
        for p in range(unknown.num_properties):
            v = standalone[p]
            row = by_prop[p]
            row.baseline_status = v.status
            row.baseline_depth = v.depth
            row.baseline_elapsed = v.elapsed
            clustered = bmc.Verdict(row.status, row.depth, row.elapsed)
            tr = classify(v, clustered)
            row.transition = tr
            size = len(row.cluster) if row.cluster else 2
            row.gain = compute_gain(
                tr, v, clustered, max(size, 2), property_index=p,
                cluster=frozenset(row.cluster or ()),
            ).value
    return report
