"""Online phase: verify an unknown design by borrowing cluster knowledge.

Pipeline: prune DB1 candidates to designs with a similar property count,
pick the structurally closest design B, associate B's properties with the
unknown's through a minimum-cost assignment over COI-size differences,
rewrite B's influencing clusters through that association, then spend the
budget on the converted clusters (leftover properties run standalone).
Each step hands the next a plain value: the matched `DesignRecord`, the
rows of COI-size differences, the B -> unknown property `dict` and the
converted member sets.

The assignment is the shortest augmenting path algorithm of Crouse, "On
implementing 2D rectangular assignment algorithms" (IEEE Transactions on
Aerospace and Electronic Systems, 2016), ported from the solver behind
scipy's `linear_sum_assignment` with its tie-breaking, so the association
is the one scipy would choose.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial

from . import bmc, parallel
from .gain import score
from .netlist import DataError, Netlist, extract_coi
from .store import DesignRecord, PropertyEntry

log = logging.getLogger(__name__)

# rectangular assignment pads with this sentinel; anything matched to a pad
# stays unmapped
_SENTINEL = 10 ** 9

# a campaign whose runs may spend at most this many cost units in total
# runs on this process: at that size a forked second process costs about
# as much as it takes off (fork, reap and copy-on-write faults: about 4 ms);
# the README has the measurements
ONE_PROCESS_MAX_COST = 10_000


def default_delta(property_count: int) -> int:
    return max(5, math.ceil(0.2 * property_count))


def unknown_record(n: Netlist, verdicts=None) -> DesignRecord:
    """DB1 record of a netlist, named `n.name` ("unknown" if it has no
    name): per-property COI sizes with the standalone verdicts in
    `verdicts` (property -> Verdict), or UNDET at depth -1 for a design
    not yet verified."""
    props = []
    for p in range(n.num_properties):
        v = verdicts[p] if verdicts is not None else bmc.Verdict(bmc.UNDET, -1)
        props.append(PropertyEntry(*extract_coi(n, p), v.status, v.depth,
                                   v.elapsed))
    return DesignRecord(n.name or "unknown", n.num_inputs,
                        n.num_latches, n.num_ands, tuple(props))


def select_similar_design(db1_records, unknown: DesignRecord) -> DesignRecord:
    """Closest design by L1 structural distance within the pruned set.

    Pruning keeps designs whose property count P has |P - P_U| < delta,
    so P lies strictly within (P_U - delta, P_U + delta), with delta =
    `default_delta(P_U)` >= 5; an empty result doubles delta and retries
    instead of failing.  Once delta exceeds both P_U and every design's
    property count, every design is a candidate, so the loop ends.
    """
    if not db1_records:
        raise DataError("DB1 has no designs")
    p_u = unknown.property_count
    delta = default_delta(p_u)
    candidates = []
    while not candidates:
        candidates = [r for r in db1_records
                      if abs(r.property_count - p_u) < delta]
        if not candidates:
            log.warning("pruning empty at delta=%d; widening to %d", delta, 2 * delta)
            delta *= 2
    fu = unknown.feature_vector()

    def distance(r):
        return sum(abs(a - b) for a, b in zip(r.feature_vector(), fu))

    return min(candidates, key=lambda r: (distance(r), r.design))


def build_diff_matrix(b: DesignRecord, u: DesignRecord) -> list:
    """Pairwise L1 distance over per-property COI sizes: row i, column j
    compares property i of the known design `b` with property j of the
    unknown's record `u`."""
    return [
        [
            abs(bp.coi_inputs - up.coi_inputs)
            + abs(bp.coi_latches - up.coi_latches)
            + abs(bp.coi_ands - up.coi_ands)
            for up in u.props
        ]
        for bp in b.props
    ]


def _min_cost_assignment(cost):
    """Column of each row in a minimum-cost perfect matching of the square
    matrix `cost` (a list of rows of finite numbers).

    Row by row, a Dijkstra search over reduced costs finds the shortest
    augmenting path; the dual potentials `u` and `v` keep reduced costs
    non-negative.  Ties break as in scipy: columns are scanned from the
    last, and among columns of equal path cost an unassigned one wins.
    """
    n = len(cost)
    u = [0] * n
    v = [0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows, cols = [], []   # rows and columns the search reached
        min_val = 0
        i, sink = cur, -1
        while sink == -1:
            rows.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest
                                            and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:   # augment along the path back to row `cur`
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def associate_properties(rows) -> dict:
    """Injective B-property -> unknown-property map of minimal total cost,
    over the cost rows of `build_diff_matrix`."""
    if not rows or not rows[0]:
        return {}
    nr, nc = len(rows), len(rows[0])
    size = max(nr, nc)
    cost = [[_SENTINEL] * size for _ in range(size)]
    for i in range(nr):
        cost[i][:nc] = rows[i]
    return {i: j for i, j in enumerate(_min_cost_assignment(cost))
            if i < nr and j < nc}


def convert_clusters(influencing_clusters, prop_map: dict):
    """Rewrite cluster member sets through the association.

    Unmapped members are dropped individually; clusters falling below two
    members are discarded; the result is deduplicated, deterministically
    ordered by (size, members).
    """
    converted = []
    seen = set()
    for members in influencing_clusters:
        mapped = frozenset(prop_map[p] for p in members if p in prop_map)
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
    verdict: bmc.Verdict    # of the cluster run, or of the standalone run
    baseline: bmc.Verdict | None = None   # the standalone run's, if asked
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
            v, b = r.verdict, r.baseline
            base = (["-"] * 3 if b is None
                    else [b.status, str(b.depth), repr(b.elapsed)])
            base += [r.transition if r.transition is not None else "-",
                     "-" if r.gain is None else repr(r.gain)]
            out.append(
                f"{r.property}|{cluster}|{v.status}|{v.depth}|{v.elapsed!r}|"
                + "|".join(base)
            )
        return "\n".join(out) + "\n"


def verify_unknown(
    unknown: Netlist,
    db1_records,
    db3_records,
    cfg: bmc.BmcConfig,
    baseline: bool = False,
) -> CampaignReport:
    """Algorithm for the full online phase; every property gets one verdict.

    The unknown's record (`unknown_record`, which names it by
    `unknown.name`; COI sizes, each cone extracted once) picks the
    closest DB1 design and is associated with it; that design's DB3
    influencing clusters are converted through the association.  Each
    converted cluster is charged the per-property budget times the number
    of still-unverified properties it claims, so the campaign total stays
    within budget x property count; with a frame bound alone it runs
    unbudgeted.  Properties no cluster claims run standalone.

    `baseline` adds each property's standalone verdict, transition and
    gain.  Unclaimed properties already ran standalone, so their verdicts
    are reused; only clustered properties run `check_single` again.
    Properties with one bad literal share one standalone run, and a
    cluster run solves each of its bad literals once.

    Which properties a cluster claims follows from member lists alone, so
    every run is planned first and the runs go through one `parallel.map2`
    call, each costed by its member count.  A campaign whose cost-unit
    budget, summed over its runs, is at most `ONE_PROCESS_MAX_COST` runs
    them in plan order on this process instead; under a time budget, or a
    frame bound alone, it always splits.
    """
    u_rec = unknown_record(unknown)
    matched = select_similar_design(db1_records, u_rec)
    prop_map = associate_properties(build_diff_matrix(matched, u_rec))

    influencing = []
    seen = set()
    for r in db3_records:
        if r.design == matched.design and r.influencing not in seen:
            seen.add(r.influencing)
            influencing.append(r.influencing)
    clusters = convert_clusters(influencing, prop_map)

    claimed: set = set()
    planned = []   # (sorted members, properties the run answers, budget)
    for members in clusters:
        new = sorted(set(members) - claimed)
        if not new:
            continue
        total = None if cfg.budget is None else cfg.budget * len(new)
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
    # the cluster runs share len(claimed) budgets, each standalone run one
    if (cfg.deterministic and cfg.budget is not None
            and cfg.budget * (len(claimed) + len(owners))
            <= ONE_PROCESS_MAX_COST):
        results = [run() for run in jobs]
    else:
        results = parallel.map2(lambda run: run(), jobs, costs)

    runs = dict(zip(owners, results[len(planned):]))
    standalone = {p: runs[q] for p, q in owner.items()}
    rows = {p: PropertyRow(p, None, standalone[p]) for p in unclaimed}
    report = CampaignReport(unknown=u_rec.design, matched=matched.design)
    for (members, new, _total), run in zip(planned, results):
        report.cluster_runs.append((members, run.per_frame))
        rows.update((p, PropertyRow(p, members, run.per_property[p]))
                    for p in new)
    # in property order, so a contradiction names the lowest property
    report.rows = [rows[p] for p in sorted(rows)]

    if baseline:
        for row in report.rows:
            row.baseline = standalone[row.property]
            g = score(u_rec.design, row.property, row.cluster or (),
                      row.baseline, row.verdict)
            row.transition, row.gain = g.transition, g.value
    return report
