"""Command-line front end: `offline` builds the databases, `verify` runs
a campaign on an unknown design and writes its report, its frame table
and figure data.

Exit codes, each raised as one exception class:

  0  success
  2  usage: argparse's own errors, and `bmc.BmcConfigError` for option
     values out of range or in conflict, before any work
  3  data: `netlist.DataError` for input, a database or an output file
     that cannot be used
  4  internal invariant violation: `AssertionError`, or
     `parallel.ChildLost` when a forked worker ends without a result
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections import Counter

from . import bmc, clusterer, embed, gain, online, parallel, store
from .netlist import DataError, parse_aiger

log = logging.getLogger("clusterbmc")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _bmc_config(args) -> bmc.BmcConfig:
    return bmc.BmcConfig(
        time_budget=args.time_budget,
        conflict_budget=args.budget_conflicts,
        max_frames=args.max_frames,
        seed=args.seed,
    )


def _at_least_one(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return int(text)


def _design_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _make_out_dir(path: str):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:  # a file of that name, or one on the path
        raise DataError(f"cannot create output directory: {e}") from None


def cmd_offline(args) -> int:
    cfg = _bmc_config(args)
    names = [_design_name(path) for path in args.designs]
    twice = sorted(name for name, k in Counter(names).items() if k > 1)
    if twice:
        raise DataError(f"two design files named {', '.join(twice)}: "
                        f"design ids come from base names and must differ")
    _make_out_dir(args.out_dir)
    paths = store.db_paths(args.out_dir)
    # DB1 goes first and comes back last, so that its presence marks a
    # complete build; verify refuses a directory without it
    store.remove_file(paths[store.DB1])

    designs = []
    for path, name in zip(args.designs, names):
        try:
            store.check_name(name)
            text = store.read_text(path)
            designs.append((name, parse_aiger(text, name=name)))
        except DataError as e:
            log.error("skipping %s: %s", path, e)
    if not designs:
        raise DataError("no parseable designs")

    # the embeddings and the PCA need no verdict: fit them before any run
    tensors = [t for name, n in designs
               for t in embed.design_signatures(n, patterns=args.patterns,
                                                seed=args.seed)]
    if len(tensors) < 2:
        raise DataError("need at least 2 property embeddings to fit PCA")
    pca = embed.fit_pca(tensors)
    db2 = [embed.EmbeddingTensor(t.design, t.property, vector)
           for t, vector in zip(tensors, embed.project_all(pca, tensors))]

    reduced = {}
    for rec in db2:
        reduced.setdefault(rec.design, {})[rec.property] = rec.values

    def design_runs(design):
        """A design's DB1 record and DB3 rows: its standalone runs, then
        its cluster runs if it has at least two properties.

        A cluster whose members all share one bad literal would search as
        that literal's standalone run under a larger budget.  When that
        run is deterministic and did not stop, the larger budget changes
        nothing, so the cluster takes its verdict instead of running."""
        name, n = design
        owner = bmc.single_run_owners(n, range(n.num_properties))
        runs = {q: bmc.check_single(n, q, cfg)
                for q in dict.fromkeys(owner.values())}
        standalone = {p: runs[q] for p, q in owner.items()}
        record = online.unknown_record(n, standalone)
        if n.num_properties < 2:
            return record, []
        family = clusterer.build_family(reduced[name], seed=args.seed,
                                        max_clusters=args.max_clusters)
        runs = []
        for c in family.clusters:
            members = sorted(c.members)
            v = standalone[members[0]]
            if (cfg.deterministic and not v.stopped
                    and len({owner[p] for p in members}) == 1):
                verdicts = dict.fromkeys(members, v)
            else:
                verdicts = bmc.check_cluster(n, members, cfg).per_property
            runs.append((c.members, verdicts))
        imap = gain.build_influencing_map(name, standalone, runs)
        return record, [store.InfluenceRecord(name, p, imap.influencing[p],
                                              tuple(imap.records[p]))
                        for p in sorted(imap.influencing)
                        if imap.influencing[p] is not None]

    # the cost of a design's BMC work, for the two-process split
    costs = [n.num_properties * (n.num_ands + n.num_latches)
             for _name, n in designs]
    results = parallel.map2(design_runs, designs, costs)
    db1 = [record for record, _rows in results]
    db3 = [row for _record, rows in results for row in rows]

    store.write_db(store.DB2, db2, paths[store.DB2])
    store.write_db(store.DB3, db3, paths[store.DB3])
    store.write_pca(pca, paths["pca"])
    store.write_db(store.DB1, db1, paths[store.DB1])
    log.info("wrote %d designs, %d embeddings, %d influence rows",
             len(db1), len(db2), len(db3))
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _bmc_config(args)
    paths = store.db_paths(args.db_dir)
    db1 = store.read_db(store.DB1, paths[store.DB1])
    db3 = store.read_db(store.DB3, paths[store.DB3])
    name = _design_name(args.unknown)
    try:
        # the report names the unknown on its first line
        store.check_name(name)
        n = parse_aiger(store.read_text(args.unknown), name=name)
    except DataError as e:
        raise DataError(f"cannot load {args.unknown}: {e}") from None
    _make_out_dir(args.out_dir)

    report = online.verify_unknown(n, db1, db3, cfg, baseline=args.baseline)
    report_path = os.path.join(args.out_dir, "report.txt")
    store.write_text(report_path, report.render())
    bmc.write_frame_csvs(report.cluster_runs, args.out_dir)
    # figure data of this campaign alone: per frame, sums over its cluster
    # runs; then each baselined property's standalone and clustered depth
    conflicts, times = {}, {}
    for _members, per_frame in report.cluster_runs:
        for s in per_frame:
            conflicts[s.frame] = conflicts.get(s.frame, 0.0) + s.conflicts
            times[s.frame] = times.get(s.frame, 0.0) + s.cumulative_time
    figures = {
        "conflicts.csv": sorted(conflicts.items()),
        "verification_time.csv": sorted(times.items()),
        "depth_scatter.csv": [(r.baseline.depth, r.verdict.depth)
                              for r in report.rows if r.baseline is not None],
    }
    for fname, pairs in figures.items():
        store.write_text(os.path.join(args.out_dir, fname), "x,y\n"
                         + "".join(f"{x},{y}\n" for x, y in pairs))
    print(report_path)
    return EXIT_OK


def _add_common(p):
    p.add_argument("--time-budget", type=float, default=None,
                   help="per-property wall-clock budget in seconds")
    p.add_argument("--budget-conflicts", type=int, default=None,
                   help="per-property budget in solver cost units (deterministic)")
    p.add_argument("--max-frames", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="orders new solver variables; offline also draws "
                        "the simulation stimuli and starts k-means with it")
    p.add_argument("--mode", choices=["init"], default="init",
                   help="no effect: BMC runs from reset, and a latch with no "
                        "reset is free; kept while the benchmark passes it")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clusterbmc",
        description="multi-property BMC with reusable cluster knowledge",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("offline", help="build the three databases")
    p.add_argument("designs", nargs="+", help="AIGER (aag) design files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--patterns", type=_at_least_one, default=4096,
                   help="simulation stimuli per design")
    p.add_argument("--max-clusters", type=_at_least_one,
                   default=clusterer.DEFAULT_MAX_CLUSTERS)
    _add_common(p)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("verify", help="verify an unknown design against a db")
    p.add_argument("unknown", help="AIGER (aag) file")
    p.add_argument("--db-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--baseline", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except bmc.BmcConfigError as e:  # before any work
        ap.error(str(e))
    except DataError as e:
        log.error("%s", e)
        return EXIT_DATA
    except (AssertionError, parallel.ChildLost) as e:
        log.error("internal invariant violation: %s", e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
