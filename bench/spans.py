"""Span tracer wrapped around clusterbmc's public functions from outside.

`instrument` replaces each traced function, in its own module and in every
module that imported it by name, with a wrapper that records one span
(id, name, start, end, parent id, operation id, self seconds) in memory.
Self time is the span's duration minus the time of the traced calls made
inside it, so the self times of all spans of one operation add up to the
duration of its outermost span, `cli.main`.

Functions called hundreds of thousands of times per operation
(`SolverSession.add_clause`, `gain.classify`, `gain.compute_gain`) get a
cheaper wrapper that only adds its call count and seconds to a total and
charges them to the enclosing span.

Nothing here changes what a wrapped function computes: wrappers read
arguments and results, never alter them.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections import Counter, defaultdict

# traced function -> the per-layer metric its time counts towards
GROUPS = {
    "satcore.SolverSession.solve": "satcore.solve",
    "netlist.parse_aiger": "netlist.parse",
    "netlist.extract_coi": "netlist.coi",
    "netlist.restrict_to_coi": "netlist.coi",
    "netlist.UnfoldBuilder.add_frame": "netlist.unfold",
    "embed.coi_signature": "embed.signature",
    "embed.simulate_signature": "embed.signature",
    "embed.fit_pca": "embed.fit_pca",
    "embed.project": "embed.project",
    "clusterer.build_family": "clusterer.build_family",
    "gain.build_influencing_map": "gain.influence",
    "store.write_db": "store.write",
    "store.write_pca": "store.write",
    "store.read_db": "store.read",
    "store.read_pca": "store.read",
    "online.unknown_record": "online.match",
    "online.select_similar_design": "online.match",
    "online.build_diff_matrix": "online.assoc",
    "online.associate_properties": "online.assoc",
    "online.convert_clusters": "online.convert",
}

# units of the metrics that repeat exactly for the same code and inputs
DETERMINISTIC_UNITS = ("count", "bytes", "ratio")

LAYERS = ("cli", "netlist", "satcore", "bmc", "embed", "clusterer", "gain",
          "store", "online")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.hot = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []   # [span id, seconds of traced children]
        self._next_id = 0
        self._undo: list = []
        self._session = None
        self.single_runs: set = set()   # (netlist, property, config)

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, after):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((sid, name, t0, t1, parent, self.op,
                              t1 - t0 - frame[1]))
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _hot(self, fn, name):
        acc, stack, perf = self.hot[name], self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                acc[0] += 1
                acc[1] += dt
                if stack:
                    stack[-1][1] += dt
        return wrapper

    def patch(self, module, qualname: str, modules, hot=False, after=None):
        """Wraps `module.qualname` wherever `modules` hold it by name.
        `after(result, args, kwargs)` runs once the span has ended."""
        owner = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = owner.__dict__[attr]
        name = module.__name__.rsplit(".", 1)[-1] + "." + qualname
        wrapper = self._hot(orig, name) if hot else self._span(orig, name, after)
        targets = [(owner, attr)] + [
            (m, k) for m in modules for k, v in vars(m).items()
            if v is orig and m is not owner
        ]
        for target, key in targets:
            self._undo.append((target, key, orig))
            setattr(target, key, wrapper)

    def unpatch(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    # -- operations -------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self.single_runs = set()

    def end_op(self):
        self.new_session(None)
        self.op = None

    def new_session(self, session):
        """Counts the size of the previous solver session, which BMC runs
        one at a time have finished with, and holds only the new one:
        keeping every session alive until the operation ends slows the
        traced run through garbage-collector scans."""
        if self._session is not None:
            self.counts["satcore.vars"] += self._session.num_vars
            self.counts["satcore.clauses"] += len(self._session.clauses)
        self._session = session

    def write(self, path: str):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op,
                                     "self_s": self_s}) + "\n")
            for name, (calls, seconds) in sorted(self.hot.items()):
                fh.write(json.dumps({"name": name, "calls": calls,
                                     "seconds": seconds}) + "\n")


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def instrument(tracer: Tracer):
    """Wraps the public functions of every clusterbmc module."""
    import clusterbmc
    from clusterbmc import (bmc, cli, clusterer, embed, gain, netlist, online,
                            satcore, store)

    modules = [clusterbmc, bmc, cli, clusterer, embed, gain, netlist, online,
               satcore, store]
    c = tracer.counts

    def bmc_run(spent, budget):
        c["bmc.runs"] += 1
        c["bmc.cost_units"] += spent
        if budget is not None and spent > budget:
            c["bmc.budget_overshoots"] += 1

    def on_single(v, args, kwargs):
        n, p, cfg = (_arg(args, kwargs, i, k)
                     for i, k in enumerate(("n", "p", "cfg")))
        if (n, p, cfg) in tracer.single_runs:
            c["bmc.repeat_single_runs"] += 1
        tracer.single_runs.add((n, p, cfg))
        bmc_run(v.elapsed, cfg.conflict_budget)

    def on_cluster(cv, args, kwargs):
        k = len(set(_arg(args, kwargs, 1, "cluster")))
        cfg = _arg(args, kwargs, 2, "cfg")
        bmc_run(cv.total_elapsed, None if cfg.conflict_budget is None
                else cfg.conflict_budget * k)

    def on_budgeted(cv, args, kwargs):
        k = len(set(_arg(args, kwargs, 1, "props")))
        cfg = _arg(args, kwargs, 2, "cfg")
        total = _arg(args, kwargs, 3, "total_budget")
        # run_with_budget splits the total evenly, rounding down
        bmc_run(cv.total_elapsed, None if cfg.conflict_budget is None
                else max(1, int(total) // k) * k)

    def on_solve(r, args, kwargs):
        c["satcore.conflicts"] += r.conflicts_this_call
        c["satcore.propagations"] += r.propagations_this_call
        c["satcore.unknown"] += r.status == satcore.UNKNOWN

    def on_frame(triples, args, kwargs):
        c["bmc.frames"] += 1
        c["netlist.unfold_ands"] += len(triples)

    def on_influence(imap, args, kwargs):
        c["gain.properties"] += len(imap.influencing)
        c["gain.influenced"] += sum(v is not None for v in imap.influencing.values())

    def on_write(path_index):
        def after(_r, args, kwargs):
            c["store.bytes_written"] += os.path.getsize(
                _arg(args, kwargs, path_index, "path"))
        return after

    def on_convert(converted, args, kwargs):
        offered = len(_arg(args, kwargs, 0, "influencing_clusters"))
        c["online.clusters_converted"] += len(converted)
        c["online.clusters_dropped"] += offered - len(converted)

    spans = [
        (cli, "main", None), (cli, "cmd_offline", None),
        (cli, "cmd_verify", None),
        (netlist, "parse_aiger", None), (netlist, "extract_coi", None),
        (netlist, "restrict_to_coi", None),
        (netlist, "UnfoldBuilder.add_frame", on_frame),
        (netlist, "Netlist.eval_frame", None),
        (satcore, "new_solver", lambda s, a, k: tracer.new_session(s)),
        (satcore, "SolverSession.solve", on_solve),
        (bmc, "check_single", on_single), (bmc, "check_cluster", on_cluster),
        (bmc, "run_with_budget", on_budgeted),
        (bmc, "write_frame_csvs", None),
        (embed, "coi_signature", None), (embed, "simulate_signature", None),
        (embed, "fit_pca",
         lambda m, a, k: c.update({"embed.pca_components": m.num_components})),
        (embed, "project", None),
        (clusterer, "build_family",
         lambda f, a, k: c.update({"clusterer.clusters": len(f.clusters)})),
        (clusterer, "kmeans", None), (clusterer, "kmedoids", None),
        (gain, "build_influencing_map", on_influence),
        (store, "write_db", on_write(2)), (store, "write_pca", on_write(1)),
        (store, "read_db", None), (store, "read_pca", None),
        (online, "verify_unknown", None), (online, "unknown_record", None),
        (online, "select_similar_design", None),
        (online, "build_diff_matrix", None),
        (online, "associate_properties", None),
        (online, "convert_clusters", on_convert),
    ]
    for module, qualname, after in spans:
        tracer.patch(module, qualname, modules, after=after)
    for module, qualname in ((satcore, "SolverSession.add_clause"),
                             (gain, "classify"), (gain, "compute_gain")):
        tracer.patch(module, qualname, modules, hot=True)

    # kmeans repairs an empty cluster by emptying another and then averages
    # nothing; numpy's RuntimeWarnings are the trace of that defect
    traced_kmeans = clusterer.kmeans

    def kmeans(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = traced_kmeans(*args, **kwargs)
        c["clusterer.warnings"] += len(caught)
        return result

    for target in (clusterer, clusterbmc):
        tracer._undo.append((target, "kmeans", getattr(target, "kmeans")))
        setattr(target, "kmeans", kmeans)


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics, name -> (value, unit), over every traced span."""
    name_of = {s[0]: s[1] for s in tracer.spans}
    incl: dict = defaultdict(float)
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for sid, name, t0, t1, parent, op, own in tracer.spans:
        self_s[name.split(".")[0]] += own
        group = GROUPS.get(name)
        # a group's time is that of its outermost spans, so a signature
        # computed through coi_signature -> simulate_signature counts once
        if group is not None and GROUPS.get(name_of.get(parent)) != group:
            incl[group] += t1 - t0
            calls[group] += 1
    for name, (_n, seconds) in tracer.hot.items():
        self_s[name.split(".")[0]] += seconds
    c = tracer.counts
    add_calls, add_s = tracer.hot["satcore.SolverSession.add_clause"]
    solve_calls = calls["satcore.solve"]
    m = {
        "satcore.solve_s": (incl["satcore.solve"], "s"),
        "satcore.solve_calls": (solve_calls, "count"),
        "satcore.conflicts": (c["satcore.conflicts"], "count"),
        "satcore.propagations": (c["satcore.propagations"], "count"),
        "satcore.conflicts_per_s": (
            c["satcore.conflicts"] / incl["satcore.solve"]
            if incl["satcore.solve"] else 0.0, "1/s"),
        "satcore.unknown_frac": (
            c["satcore.unknown"] / solve_calls if solve_calls else 0.0, "ratio"),
        "satcore.add_clause_s": (add_s, "s"),
        "satcore.add_clause_calls": (add_calls, "count"),
        "satcore.vars": (c["satcore.vars"], "count"),
        "satcore.clauses": (c["satcore.clauses"], "count"),
        "netlist.parse_s": (incl["netlist.parse"], "s"),
        "netlist.coi_s": (incl["netlist.coi"], "s"),
        "netlist.coi_calls": (calls["netlist.coi"], "count"),
        "netlist.unfold_s": (incl["netlist.unfold"], "s"),
        "netlist.unfold_ands": (c["netlist.unfold_ands"], "count"),
        "bmc.runs": (c["bmc.runs"], "count"),
        "bmc.frames": (c["bmc.frames"], "count"),
        "bmc.cost_units": (c["bmc.cost_units"], "count"),
        "bmc.clauses_per_frame": (
            add_calls / c["bmc.frames"] if c["bmc.frames"] else 0.0, "count"),
        "bmc.repeat_single_runs": (c["bmc.repeat_single_runs"], "count"),
        "bmc.budget_overshoots": (c["bmc.budget_overshoots"], "count"),
        "embed.signature_s": (incl["embed.signature"], "s"),
        "embed.signatures": (calls["embed.signature"], "count"),
        "embed.fit_pca_s": (incl["embed.fit_pca"], "s"),
        "embed.pca_components": (c["embed.pca_components"], "count"),
        "embed.project_s": (incl["embed.project"], "s"),
        "clusterer.build_family_s": (incl["clusterer.build_family"], "s"),
        "clusterer.clusters": (c["clusterer.clusters"], "count"),
        "clusterer.warnings": (c["clusterer.warnings"], "count"),
        "gain.influence_s": (incl["gain.influence"], "s"),
        "gain.influencing_frac": (
            c["gain.influenced"] / c["gain.properties"]
            if c["gain.properties"] else 0.0, "ratio"),
        "store.write_s": (incl["store.write"], "s"),
        "store.read_s": (incl["store.read"], "s"),
        "store.bytes_written": (c["store.bytes_written"], "bytes"),
        "online.match_s": (incl["online.match"], "s"),
        "online.assoc_s": (incl["online.assoc"], "s"),
        "online.convert_s": (incl["online.convert"], "s"),
        "online.clusters_converted": (c["online.clusters_converted"], "count"),
        "online.clusters_dropped": (c["online.clusters_dropped"], "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    return m
