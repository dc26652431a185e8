"""Command-line front end: offline database build, online verification,
and figure-data reporting.

Exit codes: 0 success, 2 usage, 3 data error, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import logging
import os
import sys
from collections import Counter

from . import bmc, clusterer, embed, gain, online, parallel, store
from .netlist import INDUCTIVE, INIT, AigerError, parse_aiger

log = logging.getLogger("clusterbmc")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

MODES = {"init": INIT, "inductive": INDUCTIVE}


class DataError(Exception):
    pass


class UsageError(Exception):
    """Options that are each valid but do not go together."""


def _bmc_config(args) -> bmc.BmcConfig:
    return bmc.BmcConfig(
        time_budget=args.time_budget,
        conflict_budget=args.budget_conflicts,
        max_frames=args.max_frames,
        mode=MODES[args.mode],
        seed=args.seed,
    )


def _at_least_one(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return int(text)


def _fraction(text: str) -> float:
    if not 0 < float(text) <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], not {text}")
    return float(text)


def _design_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _make_out_dir(path: str):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:  # a file of that name, or one on the path
        raise DataError(f"cannot create output directory: {e}") from None


def _import_tensors(paths, designs) -> list:
    """Imported tensors, each naming a property of a parsed design, at most
    one per property."""
    num_props = {name: n.num_properties for name, n in designs}
    tensors, seen = [], set()
    for path in paths:
        try:
            t = embed.import_tensor(path)
        except OSError as e:
            raise DataError(f"cannot read tensor file: {e}") from None
        if t.design not in num_props:
            raise DataError(f"{path}: design {t.design!r} is not among the "
                            f"parsed designs")
        if not 0 <= t.property < num_props[t.design]:
            raise DataError(f"{path}: {t.design} has no property {t.property}")
        if (t.design, t.property) in seen:
            raise DataError(f"{path}: second tensor for {t.design} "
                            f"property {t.property}")
        seen.add((t.design, t.property))
        tensors.append(t)
    return tensors


def cmd_offline(args) -> int:
    cfg = _bmc_config(args)
    if (args.embed == "import") != (args.tensors is not None):
        raise UsageError("--tensors needs --embed import, and "
                         "--embed import needs --tensors")
    names = [_design_name(path) for path in args.designs]
    twice = sorted(name for name, k in Counter(names).items() if k > 1)
    if twice:
        raise DataError(f"two design files named {', '.join(twice)}: "
                        f"design ids come from base names and must differ")
    _make_out_dir(args.out_dir)
    paths = store.db_paths(args.out_dir)

    designs = []
    for path, name in zip(args.designs, names):
        try:
            store.check_name(name)
            with open(path) as fh:
                designs.append((name, parse_aiger(fh.read(), name=name)))
        except (store.ReservedName, OSError, AigerError,
                UnicodeDecodeError) as e:
            log.error("skipping %s: %s", path, e)
    if not designs:
        raise DataError("no parseable designs")

    # the embeddings and the PCA need no verdict: fit them before any run
    if args.embed == "import":
        tensors = _import_tensors(args.tensors, designs)
    else:
        tensors = [t for name, n in designs
                   for t in embed.design_signatures(
                       n, patterns=args.patterns, seed=args.seed, design=name)]
    if len(tensors) < 2:
        raise DataError("need at least 2 property embeddings to fit PCA")
    pca = embed.fit_pca(tensors, args.pca_threshold)
    db2 = [store.EmbeddingRecord(t.design, t.property, vector)
           for t, vector in zip(tensors, embed.project_all(pca, tensors))]

    reduced = {}
    for rec in db2:
        reduced.setdefault(rec.design, {})[rec.property] = rec.vector

    def design_runs(design):
        """A design's DB1 record and DB3 rows: its standalone runs, then
        its cluster runs if it has at least two reduced embeddings."""
        name, n = design
        owner = bmc.single_run_owners(n, range(n.num_properties))
        runs = {q: bmc.check_single(n, q, cfg)
                for q in dict.fromkeys(owner.values())}
        standalone = {p: runs[q] for p, q in owner.items()}
        record = online.unknown_record(n, name, standalone)
        if len(reduced.get(name, {})) < 2:
            return record, []
        family = clusterer.build_family(name, reduced[name], seed=args.seed,
                                        max_clusters=args.max_clusters)
        runs = [(c.members, bmc.check_cluster(n, sorted(c.members),
                                              cfg).per_property)
                for c in family.clusters]
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

    store.write_db(store.DB1, db1, paths[store.DB1])
    store.write_db(store.DB2, db2, paths[store.DB2])
    store.write_db(store.DB3, db3, paths[store.DB3])
    store.write_pca(pca, paths["pca"])
    log.info("wrote %d designs, %d embeddings, %d influence rows",
             len(db1), len(db2), len(db3))
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _bmc_config(args)
    paths = store.db_paths(args.db_dir)
    for key in (store.DB1, store.DB3):
        if not os.path.exists(paths[key]):
            raise DataError(f"missing database file {paths[key]}")
    db1 = store.read_db(store.DB1, paths[store.DB1])
    db3 = store.read_db(store.DB3, paths[store.DB3])
    try:
        with open(args.unknown) as fh:
            n = parse_aiger(fh.read(), name=_design_name(args.unknown))
    except (OSError, AigerError, UnicodeDecodeError) as e:
        raise DataError(f"cannot load {args.unknown}: {e}") from None
    _make_out_dir(args.out_dir)

    report = online.verify_unknown(
        n, db1, db3, cfg,
        delta=args.delta, baseline=args.baseline,
        design=_design_name(args.unknown),
    )
    report_path = os.path.join(args.out_dir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(report.render())
    for members, per_frame in report.cluster_runs:
        run_id = "cluster_" + "_".join(map(str, members))
        bmc.write_frame_csvs(per_frame, args.out_dir, run_id)
    print(report_path)
    return EXIT_OK


def _require_columns(path, reader, names):
    missing = set(names) - set(reader.fieldnames or ())
    if missing:
        raise DataError(f"{path}: no column {', '.join(sorted(missing))}")


def _read_report(path: str):
    """Property rows of a campaign report, keyed by the column names of its
    header row (the second line, under the campaign line)."""
    fh = io.StringIO(store.read_text(path))
    fh.readline()
    reader = csv.DictReader(fh, delimiter="|", quoting=csv.QUOTE_NONE)
    _require_columns(path, reader, ("depth", "baseline_depth"))
    return list(reader)


def cmd_report(args) -> int:
    report_path = os.path.join(args.campaign_dir, "report.txt")
    if not os.path.exists(report_path):
        raise DataError(f"missing campaign report {report_path}")
    rows = _read_report(report_path)

    # aggregate per-frame metrics over all cluster runs of the campaign
    def aggregate(metric):
        totals: dict = {}
        for path in sorted(glob.glob(
                os.path.join(args.campaign_dir, f"cluster_*_{metric}.csv"))):
            reader = csv.DictReader(io.StringIO(store.read_text(path)))
            _require_columns(path, reader, ("x", "y"))
            for rec in reader:
                try:
                    x, y = int(rec["x"]), float(rec["y"])
                except (TypeError, ValueError) as e:  # None: a short row
                    raise DataError(
                        f"{path}: line {reader.line_num}: {e}") from None
                totals[x] = totals.get(x, 0.0) + y
        return totals

    wrote = []
    for metric, out_name in (("conflicts", "conflicts.csv"),
                             ("cumulative_time", "verification_time.csv")):
        totals = aggregate(metric)
        out = os.path.join(args.campaign_dir, out_name)
        with open(out, "w") as fh:
            fh.write("x,y\n")
            for x in sorted(totals):
                fh.write(f"{x},{totals[x]!r}\n")
        wrote.append(out)

    scatter = os.path.join(args.campaign_dir, "depth_scatter.csv")
    with open(scatter, "w") as fh:
        fh.write("x,y\n")
        for r in rows:
            if r["baseline_depth"] != "-":
                fh.write(f"{r['baseline_depth']},{r['depth']}\n")
    wrote.append(scatter)
    for w in wrote:
        print(w)
    return EXIT_OK


def _add_common(p):
    p.add_argument("--time-budget", type=float, default=None,
                   help="per-property wall-clock budget in seconds")
    p.add_argument("--budget-conflicts", type=int, default=None,
                   help="per-property budget in solver cost units (deterministic)")
    p.add_argument("--max-frames", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=sorted(MODES), default="inductive")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clusterbmc",
        description="multi-property BMC with reusable cluster knowledge",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("offline", help="build the three databases")
    p.add_argument("designs", nargs="+", help="AIGER (aag) design files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pca-threshold", type=_fraction, default=0.95)
    p.add_argument("--embed", choices=["sim", "import"], default="sim")
    p.add_argument("--patterns", type=_at_least_one, default=4096,
                   help="simulation stimuli per design")
    p.add_argument("--tensors", nargs="*", default=None,
                   help="tensor files for --embed import")
    p.add_argument("--max-clusters", type=_at_least_one,
                   default=clusterer.DEFAULT_MAX_CLUSTERS)
    _add_common(p)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("verify", help="verify an unknown design against a db")
    p.add_argument("unknown", help="AIGER (aag) file")
    p.add_argument("--db-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--delta", type=_at_least_one, default=None)
    p.add_argument("--baseline", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="emit figure-data CSVs for a campaign")
    p.add_argument("campaign_dir")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (bmc.BmcConfigError, UsageError) as e:  # before any work
        ap.error(str(e))
    except (DataError, store.CorruptRow, store.SchemaVersionMismatch,
            online.EmptyDatabase, online.EmptyAfterPruning,
            embed.MalformedTensorFile, embed.WidthMismatch) as e:
        log.error("%s", e)
        return EXIT_DATA
    except (AssertionError, parallel.ChildLost) as e:
        log.error("internal invariant violation: %s", e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
