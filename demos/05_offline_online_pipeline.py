"""Walkthrough: the full offline/online pipeline through the CLI layer.

Offline: a three-design corpus is verified standalone and in clusters,
producing the three databases (structural stats, reduced embeddings,
influencing clusters).  Online: a fourth design the databases have never
seen is matched to its closest relative, the relative's influencing
clusters are rewritten through the property association, and verification
spends its budget on those converted clusters; the campaign writes its
report and its figure data.  Everything runs in
conflict-budget mode, so a rerun is byte-identical.
"""

import pathlib
import tempfile

from clusterbmc import cli, serialize_aiger, store
from clusterbmc.circuits import counter, parity_miter, two_counters

with tempfile.TemporaryDirectory(prefix="pipeline_demo_") as tmp:
    root = pathlib.Path(tmp)
    designs = root / "designs"
    designs.mkdir()
    (designs / "ctr.aag").write_text(serialize_aiger(counter(3, (5, 6))))
    (designs / "twoctr.aag").write_text(serialize_aiger(two_counters()))
    (designs / "miter.aag").write_text(
        serialize_aiger(parity_miter(width=5, copies=1, variants=2)))
    (designs / "unknown.aag").write_text(
        serialize_aiger(two_counters(bits=2, bad_a=2, bad_b=3, name="unk")))

    common = ["--budget-conflicts", "300", "--max-frames", "8",
              "--seed", "1", "--patterns", "256"]

    print("== offline: building the databases ==")
    cli.main(["offline",
              str(designs / "ctr.aag"), str(designs / "twoctr.aag"),
              str(designs / "miter.aag"),
              "--out-dir", str(root / "db")] + common)
    for rec in store.read_db(store.DB1, str(root / "db" / "db1.mpb")):
        statuses = [p.status for p in rec.props]
        print(f"  {rec.design}: {rec.property_count} properties, "
              f"standalone statuses {statuses}")
    for rec in store.read_db(store.DB3, str(root / "db" / "db3.mpb")):
        print(f"  {rec.design} P{rec.property}: influencing cluster "
              f"{sorted(rec.influencing)} out of {len(rec.gains)} candidates")

    print("\n== online: verifying an unseen design ==")
    cli.main(["verify", str(designs / "unknown.aag"),
              "--db-dir", str(root / "db"), "--out-dir", str(root / "run"),
              "--baseline",
              "--budget-conflicts", "300", "--max-frames", "8",
              "--seed", "1"])
    print((root / "run" / "report.txt").read_text())

    print("== figure data: standalone depth (x) against clustered depth (y) ==")
    print((root / "run" / "depth_scatter.csv").read_text())
