"""Command-line front end: offline database build, online verification,
and figure-data reporting.

Exit codes: 0 success, 2 usage, 3 data error, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import glob
import logging
import os
import sys

from . import bmc, clusterer, embed, gain, online, store
from .netlist import INDUCTIVE, INIT, AigerError, parse_aiger

log = logging.getLogger("clusterbmc")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

MODES = {"init": INIT, "inductive": INDUCTIVE}


class DataError(Exception):
    pass


def _bmc_config(args, mode=None) -> bmc.BmcConfig:
    return bmc.BmcConfig(
        time_budget=args.time_budget,
        conflict_budget=args.budget_conflicts,
        max_frames=args.max_frames,
        mode=mode or MODES[args.mode],
        seed=args.seed,
    )


def _design_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


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
    os.makedirs(args.out_dir, exist_ok=True)
    paths = store.db_paths(args.out_dir)

    designs = []
    for path in args.designs:
        name = _design_name(path)
        try:
            with open(path) as fh:
                designs.append((name, parse_aiger(fh.read(), name=name)))
        except (OSError, AigerError, UnicodeDecodeError) as e:
            log.error("skipping %s: %s", path, e)
    if not designs:
        raise DataError("no parseable designs")

    tensors = (_import_tensors(args.tensors or [], designs)
               if args.embed == "import" else [])
    db1, standalone = [], {}
    for name, n in designs:
        verdicts = {p: bmc.check_single(n, p, cfg)
                    for p in range(n.num_properties)}
        standalone[name] = verdicts
        db1.append(online.unknown_record(n, name, verdicts))
        if args.embed == "sim":
            tensors.extend(
                embed.coi_signature(n, p, patterns=args.patterns,
                                    seed=args.seed, design=name)
                for p in range(n.num_properties)
            )

    if len(tensors) >= 2:
        pca = embed.fit_pca(tensors, args.pca_threshold)
    else:
        raise DataError("need at least 2 property embeddings to fit PCA")
    db2 = [
        store.EmbeddingRecord(t.design, t.property, embed.project(pca, t))
        for t in tensors
    ]

    db3 = []
    reduced = {}
    for rec in db2:
        reduced.setdefault(rec.design, {})[rec.property] = rec.vector
    for name, n in designs:
        if len(reduced.get(name, {})) < 2:
            continue
        family = clusterer.build_family(name, reduced[name], seed=args.seed,
                                        max_clusters=args.max_clusters)
        runs = []
        for c in family.clusters:
            cv = bmc.check_cluster(n, sorted(c.members), cfg)
            runs.append((c.members, cv.per_property))
        imap = gain.build_influencing_map(name, standalone[name], runs)
        for p in sorted(imap.influencing):
            if imap.influencing[p] is None:
                continue
            db3.append(
                store.InfluenceRecord(name, p, imap.influencing[p],
                                      tuple(imap.records[p]))
            )

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

    report = online.verify_unknown(
        n, db1, db3, cfg,
        delta=args.delta, assoc=args.assoc, baseline=args.baseline,
        design=_design_name(args.unknown),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(report.render())
    for members, per_frame in report.cluster_runs:
        run_id = "cluster_" + "_".join(map(str, members))
        bmc.write_frame_csvs(per_frame, args.out_dir, run_id)
    print(report_path)
    return EXIT_OK


def _read_report(path: str):
    """Property rows of a campaign report, keyed by the column names of its
    header row (the second line, under the campaign line)."""
    with open(path) as fh:
        fh.readline()
        reader = csv.DictReader(fh, delimiter="|", quoting=csv.QUOTE_NONE)
        missing = {"depth", "baseline_depth"} - set(reader.fieldnames or ())
        if missing:
            raise DataError(f"{path}: no column {', '.join(sorted(missing))}")
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
            with open(path) as fh:
                for rec in list(csv.DictReader(fh)):
                    x = int(rec["x"])
                    totals[x] = totals.get(x, 0.0) + float(rec["y"])
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
    p.add_argument("--pca-threshold", type=float, default=0.95)
    p.add_argument("--embed", choices=["sim", "import"], default="sim")
    p.add_argument("--patterns", type=int, default=4096)
    p.add_argument("--tensors", nargs="*", default=None,
                   help="tensor files for --embed import")
    p.add_argument("--max-clusters", type=int,
                   default=clusterer.DEFAULT_MAX_CLUSTERS)
    _add_common(p)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("verify", help="verify an unknown design against a db")
    p.add_argument("unknown", help="AIGER (aag) file")
    p.add_argument("--db-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--assoc", choices=[online.ASSOC_OPTIMAL, online.ASSOC_GREEDY],
                   default=online.ASSOC_OPTIMAL)
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
    if args.command in ("offline", "verify") and (
        args.time_budget is None and args.budget_conflicts is None
        and args.max_frames is None
    ):
        ap.error("need --time-budget, --budget-conflicts, or --max-frames")
    try:
        return args.func(args)
    except (DataError, store.CorruptRow, store.SchemaVersionMismatch,
            online.EmptyDatabase, online.EmptyAfterPruning,
            embed.MalformedTensorFile, embed.WidthMismatch) as e:
        log.error("%s", e)
        return EXIT_DATA
    except AssertionError as e:
        log.error("internal invariant violation: %s", e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
