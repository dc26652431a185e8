"""Independent reference implementations used to cross-check the package.

Everything in here deliberately avoids the library's own evaluation and
solving code paths: the cone oracle sweeps the gates to a fixpoint, the
BFS oracle walks the AIG with its own literal evaluator, the signature
oracle simulates and pools with its own code, the CNF oracle enumerates
assignments, the RUP checker propagates with its own loop over the
clauses a solver session logged (the learned ones read from the C
kernel), the gain table re-states the formulas from scratch, the
assignment oracle tries permutations, the clusterer references
recompute every distance and cost every PAM swap on a copy, and the
family reference runs every k, however few clusters are asked for.
`xor_rich_netlist` is a fixture family, of netlists mostly made of XORs,
and `read_frame_table` reads a campaign's frame table back.
"""

import ctypes
import dataclasses
import itertools
import math
import random

import numpy as np

from clusterbmc import bmc, clusterer, satcore
from clusterbmc.circuits import TRUE, AigBuilder


# -- output tables ----------------------------------------------------------

def read_frame_table(path):
    """The rows of a `cluster_frames.csv`, each as (members, FrameStat)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "cluster,frame,conflicts,solve_time,cumulative_time"
    rows = []
    for line in lines[1:]:
        cluster, frame, conflicts, solve_time, cumulative = line.split(",")
        rows.append((tuple(int(m) for m in cluster.split()),
                     bmc.FrameStat(int(frame), int(conflicts),
                                   float(solve_time), float(cumulative))))
    return rows


# -- cone of influence ------------------------------------------------------

def cone_closure(n, p):
    """The least set of variables that holds the variable of bad `p`
    (unless it is the constant 0) and is closed under two rules: an AND
    in it adds its operands' variables, a latch in it adds its next-state
    variable.  Found by sweeping every AND and latch until nothing is
    added."""
    reads = [(lhs >> 1, (a >> 1, b >> 1)) for lhs, a, b in n.ands]
    reads += [(latch.lit >> 1, (latch.next >> 1,)) for latch in n.latches]
    cone = {n.properties[p] >> 1} - {0}
    size = None
    while size != len(cone):
        size = len(cone)
        for var, operands in reads:
            if var in cone:
                cone.update(operands)
        cone.discard(0)
    return cone


# -- fixtures ----------------------------------------------------------------

def xor_rich_netlist(rng, num_bads):
    """Random netlist mostly of `xor_` gates, with the XOR tops it built.

    Some inner gates of an XOR are read again (by an AND, a latch or a
    bad), so that XOR is encoded as its three ANDs instead."""
    ni, nl = rng.randint(1, 3), rng.randint(1, 4)
    b = AigBuilder(num_inputs=ni, num_latches=nl, name="xrand")
    pool = [TRUE] + [b.input_lit(i) for i in range(ni)]
    pool += [b.latch_lit(i) for i in range(nl)]
    tops = set()

    def pick():
        return rng.choice(pool) ^ (rng.random() < 0.5)

    for _ in range(rng.randint(3, 16)):
        x, y = pick(), pick()
        if rng.random() < 0.7:
            fresh = b._next_var
            lit = b.xor_(x, y)
            if b._next_var == fresh + 3:
                tops.add(lit >> 1)
                if rng.random() < 0.2:
                    pool.append(b.and_(x, y ^ 1))   # reuse an inner gate
        else:
            lit = b.and_(x, y)
        if lit > 1:
            pool.append(lit)
    for i in range(nl):
        b.set_latch(i, pick(), reset=rng.choice([0, 0, 1, None]))
    for _ in range(num_bads):
        b.add_bad(pick())
    return b.build(), tops


# -- explicit-state reachability --------------------------------------------

def free_latches(n):
    """`n` with no latch reset: every latch valuation is an initial state,
    so BMC of the copy runs from every state of `n`."""
    return dataclasses.replace(n, latches=tuple(
        dataclasses.replace(latch, reset=None) for latch in n.latches))


def _eval_lit(lit, values):
    if lit == 0:
        return False
    if lit == 1:
        return True
    v = values[lit >> 1]
    return not v if lit & 1 else v


def _step(n, state, inputs):
    """One combinational evaluation written independently of the library."""
    values = {}
    for i in range(n.num_inputs):
        values[i + 1] = inputs[i]
    for i, latch in enumerate(n.latches):
        values[latch.lit >> 1] = state[i]
    for lhs, a, b in n.ands:
        values[lhs >> 1] = _eval_lit(a, values) and _eval_lit(b, values)
    bads = tuple(_eval_lit(b, values) for b in n.properties)
    nxt = tuple(_eval_lit(latch.next, values) for latch in n.latches)
    return bads, nxt


def bfs_reach(n, prop, max_depth):
    """('SAT', depth) for the first frame where bad `prop` holds on some
    state reachable from reset, else ('UNDET', None) within `max_depth`
    frames.  A latch with no reset starts at either value."""
    init = [[]]
    for latch in n.latches:
        if latch.reset is None:
            init = [s + [b] for s in init for b in (False, True)]
        else:
            init = [s + [bool(latch.reset)] for s in init]
    frontier = {tuple(s) for s in init}
    visited = set(frontier)
    input_space = list(itertools.product([False, True], repeat=n.num_inputs))
    for depth in range(max_depth + 1):
        nxt = set()
        for state in frontier:
            for inputs in input_space:
                bads, succ = _step(n, state, inputs)
                if bads[prop]:
                    return "SAT", depth
                nxt.add(succ)
        frontier = nxt - visited
        visited |= nxt
        if not frontier:
            # fixpoint: keep scanning nothing; no deeper state exists
            break
    return "UNDET", None


# -- simulation signature ----------------------------------------------------

def pooled_ratios(n, latch_vals, input_vals, patterns, width):
    """Logic-1 ratio of every variable of `n` on one frame, given a boolean
    array per latch and per input, averaged in variable order into `width`
    buckets (bucket i * width // count for the i-th variable)."""
    values = {}
    for i, v in enumerate(input_vals):
        values[i + 1] = v
    for latch, v in zip(n.latches, latch_vals):
        values[latch.lit >> 1] = v

    def lit(x):
        v = np.full(patterns, False) if x <= 1 else values[x >> 1]
        return ~v if x & 1 else v

    for lhs, a, b in n.ands:
        values[lhs >> 1] = lit(a) & lit(b)
    ratios = [np.count_nonzero(values[var]) / patterns
              for var in range(1, n.max_var + 1)] or [0.0]
    buckets = [[] for _ in range(width)]
    for i, r in enumerate(ratios):
        buckets[i * width // len(ratios)].append(r)
    return tuple(sum(b) / len(b) if b else 0.0 for b in buckets)


# -- CNF by enumeration ------------------------------------------------------

def cnf_enumerate(num_vars, clauses, assumptions=()):
    """'satisfiable' / 'unsatisfiable' by trying all assignments."""
    fixed = {}
    for lit in assumptions:
        want = lit > 0
        v = abs(lit)
        if v in fixed and fixed[v] != want:
            return "unsatisfiable"
        fixed[v] = want
    for bits in itertools.product([False, True], repeat=num_vars):
        assign = dict(enumerate(bits, start=1))
        if any(assign[v] != want for v, want in fixed.items()):
            continue
        ok = all(
            any(assign[abs(l)] == (l > 0) for l in clause) for clause in clauses
        )
        if ok:
            return "satisfiable"
    return "unsatisfiable"


# -- reverse unit propagation over a solver session's clauses ------------

class RupLog:
    """Mixin for `satcore.SolverSession` that logs, in session order, each
    original clause (from ``add_clauses``, which ``add_clause`` calls),
    each learned clause and, for each UNSAT answer under assumptions, the
    clause of the negated assumptions.  The learned clauses are the C
    kernel's own, read after each solve from the loaded library in the
    order they were learned."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []   # (must be RUP, clause)

    def add_clauses(self, records):
        records = list(records)
        super().add_clauses(records)   # a malformed batch logs nothing
        self.log += [(False, c) for c in split_records(records)]

    def solve(self, assumptions=(), **kwargs):
        assumptions = list(assumptions)
        learned = satcore._lib.cdcl_num_learned(self._handle)
        res = super().solve(assumptions, **kwargs)
        self.log += [(True, c) for c in learned_clauses(self, learned)]
        if res.status == "unsatisfiable" and assumptions:
            self.log.append((True, [-a for a in assumptions]))
        return res


class CountingSession(satcore.SolverSession):
    """A kernel session that counts the clauses it is given, one by one
    from each batch, without reading the session's own `clauses`."""

    added = 0

    def add_clauses(self, records):
        records = list(records)
        super().add_clauses(records)
        self.added += len(split_records(records))


def split_records(records):
    """The clauses of a well-formed batch of clause records (each a
    length followed by that many literals), as lists."""
    clauses, i = [], 0
    while i < len(records):
        n = records[i]
        clauses.append(list(records[i + 1:i + 1 + n]))
        i += 1 + n
    return clauses


def learned_clauses(session, start):
    """Learned clauses `start`, `start + 1`, ... of a kernel session, in
    DIMACS and in learning order."""
    lib = satcore._lib
    buf = (ctypes.c_int32 * max(1, session.num_vars))()
    return [buf[:lib.cdcl_learned(session._handle, i, buf)]
            for i in range(start, lib.cdcl_num_learned(session._handle))]


def rup_failures(log):
    """The claimed clauses of a `RupLog` log for which assigning every
    literal false and unit-propagating over all earlier original and
    learned clauses reaches no conflict."""
    units, occurs, failures = [], {}, []
    for claimed, clause in log:
        if claimed and not _propagates_to_conflict(units, occurs, clause):
            failures.append(clause)
            continue
        if len(clause) == 1:
            units.append(clause[0])
        for lit in clause:
            occurs.setdefault(-lit, []).append(clause)
    return failures


def _propagates_to_conflict(units, occurs, clause):
    """`occurs[lit]` lists the clauses that hold -lit."""
    true = {-lit for lit in clause}
    for unit in units:
        if -unit in true:
            return True
        true.add(unit)
    queue = list(true)
    while queue:
        for c in occurs.get(queue.pop(), ()):
            if any(lit in true for lit in c):
                continue
            free = [lit for lit in c if -lit not in true]
            if not free:
                return True
            if len(free) == 1:
                true.add(free[0])
                queue.append(free[0])
    return False


# -- gain formula table ------------------------------------------------------

def gain_value(transition, t_s, t_c, d_s, d_c, cluster_size):
    """The three formulas, re-coded directly.  Returns (value, degenerate)."""
    if transition == "UNDET_TO_SAT":
        return t_c / (cluster_size - 1), False
    if transition == "SAT_TO_SAT":
        if t_s <= 0:
            return 0.0, True
        return (t_s - t_c) / t_s, False
    if transition in ("UNDET_TO_UNDET", "SAT_TO_UNDET"):
        if d_s <= 0:
            return 0.0, True
        return (d_c - d_s) / d_s, False
    return 0.0, True


# -- assignment by brute force ----------------------------------------------

def assignment_brute_force(entries):
    """Minimum total cost over every injective row->column assignment.

    With k = min(rows, cols) every injective assignment is reachable by
    fixing the smaller axis in order and permuting the larger one.
    """
    nr, nc = len(entries), len(entries[0])
    if nr > nc:
        entries = [[entries[r][c] for r in range(nr)] for c in range(nc)]
        nr, nc = nc, nr
    return min(
        sum(entries[i][cols[i]] for i in range(nr))
        for cols in itertools.permutations(range(nc), nr)
    )


# -- PCA via the singular values of the centred data ----------------------

def pca_keep_count(data, threshold):
    """Minimal component count and its cumulative ratio, from the singular
    values of the centred data (eigenvalues sigma^2/(n-1)), not from a
    symmetric eigensolver."""
    x = np.asarray(data, dtype=float)
    centered = x - x.mean(axis=0)
    sigma = np.linalg.svd(centered, compute_uv=False)
    evals = sigma ** 2 / (len(x) - 1)
    cum = np.cumsum(evals) / evals.sum()
    keep = int(np.searchsorted(cum, threshold - 1e-12) + 1)
    return keep, float(cum[keep - 1])


# -- k-means and PAM, each recomputing its distances -----------------------

def _unit_rows(points):
    x = np.array([list(p) for p in points], dtype=float)
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0] = 1.0
    return x / norms[:, None]


def _cos_dist(a, b):
    return np.round(1.0 - a @ b.T, 9)


def kmeans_reference(points, k, seed):
    """k-means++ seeding by stacking every centre's distances per draw,
    then Lloyd iterations; a list of k groups."""
    n = len(points)
    x = _unit_rows(points)
    rng = random.Random(seed)
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
    for it in range(100):
        dists = _cos_dist(x, centers)
        new_assign = np.argmin(dists, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                far = int(np.argmax(dists[np.arange(n), new_assign]))
                new_assign[far] = c
        if np.array_equal(new_assign, assign) and it != 0:
            break
        assign = new_assign
        for c in range(k):
            members = x[assign == c]
            if not len(members):
                continue
            m = members.mean(axis=0)
            norm = np.linalg.norm(m)
            if norm > 0:
                centers[c] = m / norm
    return [sorted(np.flatnonzero(assign == c).tolist()) for c in range(k)]


def kmedoids_reference(points, k):
    """PAM build, then swaps that try each (slot, candidate) pair on a
    copy of the medoids and cost the copy from scratch; a list of k
    groups."""
    n = len(points)
    x = _unit_rows(points)
    d = _cos_dist(x, x)
    np.fill_diagonal(d, 0.0)
    d = np.maximum(d, 0.0)

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

    for _ in range(100):
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
    assign = np.argmin(d[:, medoids], axis=1)
    return [sorted(np.flatnonzero(assign == c).tolist()) for c in range(k)]


def family_reference(embeddings, seed):
    """Every distinct cluster of the full sweep, in the order
    `clusterer.build_family` keeps them: the candidates of every k from 2
    to ceil(n/2), made with the library's own partitions, then deduplicated
    by member set.  A capped family is a prefix of this list."""
    props = sorted(embeddings)
    x, d = clusterer._pairwise_cos([embeddings[p] for p in props])
    candidates = [clusterer.Cluster(frozenset(props), "full")]
    for k in range(2, max(2, math.ceil(len(props) / 2)) + 1):
        for algo, groups in (("kmeans", clusterer.kmeans(x, d, k, seed)),
                             ("kmedoids", clusterer.kmedoids(d, k))):
            candidates += [clusterer.Cluster(frozenset(props[i] for i in g),
                                             f"{algo}({k})")
                           for g in groups if len(g) >= 2]
    seen, clusters = set(), []
    for c in candidates:
        if c.members not in seen:
            seen.add(c.members)
            clusters.append(c)
    return clusters
