"""Independent reference implementations used to cross-check the package.

Everything in here deliberately avoids the library's own evaluation and
solving code paths: the BFS oracle walks the AIG with its own literal
evaluator, the signature oracle simulates and pools with its own code, the
CNF oracle enumerates assignments, the gain table re-states the formulas
from scratch, and the assignment oracle tries permutations.
"""

import itertools

import numpy as np


# -- explicit-state reachability --------------------------------------------

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


def bfs_reach(n, prop, max_depth, free_start=False):
    """('SAT', depth) for the first frame where bad `prop` holds on some
    reachable state, else ('UNDET', None) within `max_depth` frames.

    States are reachable from reset, or with `free_start` from every latch
    valuation (the start of inductive-mode BMC)."""
    init = [[]]
    for latch in n.latches:
        if latch.reset is None or free_start:
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


# -- gain formula table ------------------------------------------------------

def gain_value(transition, t_s, t_c, d_s, d_c, cluster_size):
    """The six formulas, re-coded directly.  Returns (value, degenerate)."""
    if transition in ("UNDET_TO_SAT", "UNDET_TO_UNSAT"):
        return t_c / (cluster_size - 1), False
    if transition in ("SAT_TO_SAT", "UNSAT_TO_UNSAT"):
        if t_s <= 0:
            return 0.0, True
        return (t_s - t_c) / t_s, False
    if transition in ("UNDET_TO_UNDET", "SAT_TO_UNDET", "UNSAT_TO_UNDET"):
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
