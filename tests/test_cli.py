import os
import random
import re
import subprocess
import sys

import pytest

from clusterbmc import (bmc, cli, clusterer, gain, netlist, online, parallel,
                        satcore, store)
from clusterbmc.circuits import (counter, deep_sat_miter, parity_miter,
                                 random_netlist, two_counters)
from clusterbmc.netlist import parse_aiger, serialize_aiger
import ref_satcore
from oracles import free_latches


@pytest.fixture
def corpus(tmp_path):
    d = tmp_path / "designs"
    d.mkdir()
    (d / "ctr.aag").write_text(serialize_aiger(counter(3, (5, 6))))
    (d / "twoctr.aag").write_text(serialize_aiger(two_counters()))
    (d / "miter.aag").write_text(
        serialize_aiger(parity_miter(width=5, copies=1, variants=2))
    )
    (d / "unknown.aag").write_text(
        serialize_aiger(two_counters(bits=2, bad_a=2, bad_b=3, name="unk"))
    )
    return d


COMMON = ["--budget-conflicts", "300", "--max-frames", "8",
          "--mode", "init", "--seed", "1", "--patterns", "128"]
FIGURES = ("conflicts.csv", "verification_time.csv", "depth_scatter.csv")


def run_offline(corpus, out):
    argv = ["offline",
            str(corpus / "ctr.aag"), str(corpus / "twoctr.aag"),
            str(corpus / "miter.aag"),
            "--out-dir", str(out)] + COMMON
    return cli.main(argv)


def verify_corpus(corpus, tmp_path, out, unknown="unknown.aag"):
    """A `verify --baseline` campaign of `unknown` against the corpus DB."""
    db = tmp_path / "db"
    if not db.exists():
        assert run_offline(corpus, db) == cli.EXIT_OK
    return cli.main(["verify", str(corpus / unknown), "--db-dir", str(db),
                     "--out-dir", str(out), "--baseline"] + COMMON[:-2])


def test_offline_writes_databases(corpus, tmp_path):
    out = tmp_path / "db"
    assert run_offline(corpus, out) == cli.EXIT_OK
    paths = store.db_paths(str(out))
    for key in (store.DB1, store.DB2, store.DB3, "pca"):
        assert os.path.exists(paths[key])
    db1 = store.read_db(store.DB1, paths[store.DB1])
    assert sorted(r.design for r in db1) == ["ctr", "miter", "twoctr"]
    db3 = store.read_db(store.DB3, paths[store.DB3])
    assert db3  # at least one influencing cluster was recorded


def test_verify_and_report(corpus, tmp_path):
    run_dir = tmp_path / "run"
    assert verify_corpus(corpus, tmp_path, run_dir) == cli.EXIT_OK
    report = (run_dir / "report.txt").read_text()
    assert report.startswith("campaign unknown ")
    # every property of the unknown design has a row
    assert len(report.strip().splitlines()) == 2 + 2

    # the figure data sits next to the report
    for name in FIGURES:
        lines = (run_dir / name).read_text().splitlines()
        assert lines[0] == "x,y"
    scatter = (run_dir / "depth_scatter.csv").read_text().splitlines()
    assert len(scatter) == 3  # header + one point per property
    rows = [line.split("|") for line in report.splitlines()[2:]]
    columns = report.splitlines()[1].split("|")
    want = [f"{r[columns.index('baseline_depth')]},{r[columns.index('depth')]}"
            for r in rows]
    assert scatter[1:] == want


def deep_designs(tmp_path, start="init"):
    """Four width-10 miters whose bads are first reachable at frames 4 and
    3 from reset.  With `start` "inductive" their latches are written
    without resets, so BMC runs from every state and reaches both at
    frame 0."""
    paths = []
    for seed in range(4):
        n = deep_sat_miter(10, 4, seed, name=f"deep{seed}")
        if start == "inductive":
            n = free_latches(n)
        path = tmp_path / f"deep{seed}.aag"
        path.write_text(serialize_aiger(n))
        paths.append(str(path))
    return paths


DEEP_FLAGS = ["--max-frames", "6", "--budget-conflicts", "5000"]


@pytest.mark.parametrize("start, depths", [("init", [4, 3]),
                                           ("inductive", [0, 0])])
def test_deep_sat_depths_through_offline_and_verify(tmp_path, start, depths):
    # bads first reachable at known depths, each earlier frame refuted
    # through a parity miter: DB1, the campaign and its baseline must all
    # find them, by default from reset
    paths = deep_designs(tmp_path, start)
    flags = DEEP_FLAGS
    db = tmp_path / "db"
    assert cli.main(["offline", *paths[:3], "--out-dir", str(db)]
                    + flags) == cli.EXIT_OK
    for rec in store.read_db(store.DB1, str(db / "db1.mpb")):
        assert [(p.status, p.depth) for p in rec.props] == [
            (bmc.SAT, d) for d in depths]
    run = tmp_path / "run"
    assert cli.main(["verify", paths[3], "--db-dir", str(db),
                     "--out-dir", str(run), "--baseline"] + flags) == cli.EXIT_OK
    lines = (run / "report.txt").read_text().splitlines()
    rows = [dict(zip(lines[1].split("|"), line.split("|")))
            for line in lines[2:]]
    assert [(r["status"], r["depth"], r["baseline_status"], r["baseline_depth"],
             r["transition"]) for r in rows] == [
        ("SAT", str(d), "SAT", str(d), "SAT_TO_SAT") for d in depths]


class DropLastLiteral(ref_satcore.SolverSession):
    """The reference search with an unsound learning step: a learned
    clause of three or more literals loses its last one."""

    def _learn(self, lits):
        super()._learn(lits[:-1] if len(lits) > 2 else lits)


@pytest.mark.parametrize("start", ["init", "inductive"])
def test_unsound_learning_is_internal_error(tmp_path, monkeypatch, caplog,
                                            start):
    # a learned clause missing a literal is stronger than its derivation:
    # a cluster run then disagrees with a standalone run on a depth.  The
    # mutant is the Python reference search, which every session of the
    # run uses, the forked half of `map2` included
    monkeypatch.setattr(satcore, "new_solver", DropLastLiteral)
    assert cli.main(["offline", *deep_designs(tmp_path, start)[:3],
                     "--out-dir", str(tmp_path / "db")]
                    + DEEP_FLAGS) == cli.EXIT_INTERNAL
    # the logged line says where: a design, a property and its cluster
    assert re.search(r"design deep[0-2] property [01] cluster 0 1: "
                     r"contradictory verdicts ",
                     caplog.records[-1].getMessage())
    assert not (tmp_path / "db" / "db1.mpb").exists()


def test_unsound_learning_in_verify_names_the_design(tmp_path, monkeypatch,
                                                      caplog):
    # a sound database, then a baseline run whose cluster run learns the
    # unsound clause and misses the standalone run's counterexample
    paths, flags = deep_designs(tmp_path), DEEP_FLAGS
    db = str(tmp_path / "db")
    assert cli.main(["offline", *paths[:3], "--out-dir", db]
                    + flags) == cli.EXIT_OK
    monkeypatch.setattr(satcore, "new_solver", DropLastLiteral)
    assert cli.main(["verify", paths[3], "--db-dir", db, "--out-dir",
                     str(tmp_path / "run"), "--baseline"]
                    + flags) == cli.EXIT_INTERNAL
    assert re.search(r"design deep3 property [01] cluster 0 1: "
                     r"contradictory verdicts ",
                     caplog.records[-1].getMessage())


def test_verify_with_time_budget(corpus, tmp_path):
    out = tmp_path / "db"
    assert run_offline(corpus, out) == cli.EXIT_OK
    run_dir = tmp_path / "run"
    assert cli.main(["verify", str(corpus / "unknown.aag"),
                     "--db-dir", str(out), "--out-dir", str(run_dir),
                     "--baseline", "--time-budget", "0.05",
                     "--mode", "init", "--seed", "1"]) == cli.EXIT_OK
    rows = (run_dir / "report.txt").read_text().splitlines()[2:]
    # a wall-clock budget decides how far each run gets, not which rows exist
    assert [r.split("|")[0] for r in rows] == ["0", "1"]


def test_verify_with_frame_bound_only(corpus, tmp_path):
    flags = ["--max-frames", "6", "--mode", "init"]
    out = tmp_path / "db"
    assert cli.main(["offline", str(corpus / "ctr.aag"),
                     str(corpus / "twoctr.aag"), "--out-dir", str(out),
                     "--patterns", "128"] + flags) == cli.EXIT_OK
    run_dir = tmp_path / "run"
    assert cli.main(["verify", str(corpus / "unknown.aag"), "--db-dir", str(out),
                     "--out-dir", str(run_dir)] + flags) == cli.EXIT_OK
    lines = (run_dir / "report.txt").read_text().splitlines()
    assert lines[0] == "campaign unknown matched=twoctr"
    rows = lines[2:]
    # both properties ran in one converted cluster and were resolved
    assert [r.split("|")[1:3] for r in rows] == [["0 1", "SAT"], ["0 1", "SAT"]]


def test_report_sums_frame_csvs_over_cluster_runs(corpus, tmp_path, capsys):
    # the bytes the former `report` command wrote from this campaign's
    # files: its one cluster run, 0 1, summed per frame as floats
    run = tmp_path / "run"
    assert verify_corpus(corpus, tmp_path, run) == cli.EXIT_OK
    outputs = {"conflicts.csv": "x,y\n0,0.0\n1,0.0\n2,0.0\n3,0.0\n",
               "verification_time.csv": "x,y\n0,2.0\n1,4.0\n2,6.0\n3,7.0\n",
               "depth_scatter.csv": "x,y\n2,2\n3,3\n"}
    for name, text in outputs.items():
        assert (run / name).read_text() == text
    assert capsys.readouterr().out.splitlines()[-1] == str(run / "report.txt")


def test_figures_sum_overlapping_cluster_runs(corpus, tmp_path, monkeypatch):
    # frames of two runs: shared frames add up, each frame is listed once
    def stats(*rows):
        return [bmc.FrameStat(f, c, 0.0, t) for f, c, t in rows]

    report = online.CampaignReport("unknown", "twoctr", cluster_runs=[
        ((0, 1), stats((0, 1, 0.25), (1, 2, 0.5))),
        ((2,), stats((1, 1, 0.5), (3, 4, 1.0)))])
    monkeypatch.setattr(online, "verify_unknown", lambda *a, **k: report)
    run = tmp_path / "run"
    assert verify_corpus(corpus, tmp_path, run) == cli.EXIT_OK
    assert (run / "conflicts.csv").read_text() == "x,y\n0,1.0\n1,3.0\n3,4.0\n"
    assert ((run / "verification_time.csv").read_text()
            == "x,y\n0,0.25\n1,1.0\n3,1.0\n")
    # no row has a baseline: the scatter is its header alone
    assert (run / "depth_scatter.csv").read_text() == "x,y\n"


def test_reused_out_dir_keeps_figures_to_its_campaign(corpus, tmp_path):
    # an earlier campaign's cluster run (0 1) stays in the directory, but
    # only the later campaign's run (1 2) enters its figures
    (corpus / "ctr4.aag").write_text(serialize_aiger(counter(4, (5, 6, 7))))
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert verify_corpus(corpus, tmp_path, fresh, "ctr4.aag") == cli.EXIT_OK
    assert verify_corpus(corpus, tmp_path, reused) == cli.EXIT_OK
    assert verify_corpus(corpus, tmp_path, reused, "ctr4.aag") == cli.EXIT_OK
    assert (reused / "cluster_0_1_conflicts.csv").exists()
    assert not (fresh / "cluster_0_1_conflicts.csv").exists()
    for name in FIGURES:
        assert (reused / name).read_text() == (fresh / name).read_text()


@pytest.mark.parametrize("name", ["db1.mpb", "db3.mpb"])
def test_unreadable_input_is_data_error(corpus, tmp_path, caplog, name):
    # a directory where a database should be
    base = empty_db(tmp_path)
    argv = ["verify", str(corpus / "unknown.aag"), "--db-dir", str(base),
            "--out-dir", str(tmp_path / "run"), "--budget-conflicts", "10"]
    (base / name).unlink(missing_ok=True)
    (base / name).mkdir()
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"cannot read {base / name}: Is a directory" in caplog.text


@pytest.mark.parametrize("command, name", [
    ("offline", "db1.mpb"), ("offline", "db2.mpb"), ("offline", "db3.mpb"),
    ("offline", "pca.mpb"), ("verify", "report.txt"),
    ("verify", "cluster_0_1_conflicts.csv"),
    ("verify", "cluster_0_1_solve_time.csv"),
    ("verify", "cluster_0_1_cumulative_time.csv"),
    ("verify", "conflicts.csv"), ("verify", "verification_time.csv"),
    ("verify", "depth_scatter.csv"),
])
def test_unwritable_output_is_data_error(corpus, tmp_path, caplog, command,
                                         name):
    # a directory where an output file should go
    out = tmp_path / "out"
    out.mkdir()
    (out / name).mkdir()
    if command == "offline":
        code = run_offline(corpus, out)
    else:
        assert run_offline(corpus, tmp_path / "db") == cli.EXIT_OK
        code = cli.main(["verify", str(corpus / "unknown.aag"),
                         "--db-dir", str(tmp_path / "db"),
                         "--out-dir", str(out)] + COMMON[:-2])
    assert code == cli.EXIT_DATA
    assert f"cannot write {out / name}: Is a directory" in caplog.text


@pytest.mark.parametrize("name", ["db2.mpb", "pca.mpb"])
@pytest.mark.parametrize("earlier", [False, True],
                         ids=["fresh", "over-complete-db"])
def test_failed_offline_leaves_no_db_to_verify(corpus, tmp_path, name,
                                               earlier):
    # offline fails on a later output; no DB1 marks the build incomplete,
    # also where a complete earlier build stood
    out = tmp_path / "db"
    if earlier:
        assert run_offline(corpus, out) == cli.EXIT_OK
        (out / name).unlink()
    else:
        out.mkdir()
    (out / name).mkdir()
    assert run_offline(corpus, out) == cli.EXIT_DATA
    assert not (out / "db1.mpb").exists()
    assert cli.main(["verify", str(corpus / "unknown.aag"),
                     "--db-dir", str(out), "--out-dir", str(tmp_path / "run")]
                    + COMMON[:-2]) == cli.EXIT_DATA


def test_verify_missing_db_dir(corpus, tmp_path, caplog):
    argv = ["verify", str(corpus / "unknown.aag"),
            "--db-dir", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "r"),
            "--budget-conflicts", "10"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"cannot read {tmp_path / 'nope' / 'db1.mpb'}: " in caplog.text


def test_verify_missing_db3_names_it(tmp_path, caplog):
    db = empty_db(tmp_path)
    (db / "db3.mpb").unlink()
    unknown = tmp_path / "unk.aag"
    unknown.write_text(serialize_aiger(counter(3, (5, 6))))
    argv = ["verify", str(unknown), "--db-dir", str(db),
            "--out-dir", str(tmp_path / "run"), "--budget-conflicts", "10"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"cannot read {db / 'db3.mpb'}: No such file" in caplog.text
    assert not (tmp_path / "run").exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["offline"])
    assert exc.value.code == cli.EXIT_USAGE


def test_budget_required(corpus, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["offline", str(corpus / "ctr.aag"), "--out-dir", "/tmp/x"])
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("flags, message", [
    (["--budget-conflicts", "0"], "conflict_budget must be positive"),
    (["--time-budget", "-1"], "time_budget must be positive"),
    (["--time-budget", "nan"], "time_budget must be positive and finite"),
    (["--time-budget", "inf"], "time_budget must be positive and finite"),
    (["--budget-conflicts", "10", "--seed", "-1"],
     "seed must not be negative"),
    (["--max-frames", "-3"], "max_frames must not be negative"),
    (["--budget-conflicts", "5", "--time-budget", "1"],
     "time_budget and conflict_budget are exclusive"),
    (["--budget-conflicts", "10", "--patterns", "0"], "must be at least 1"),
    (["--budget-conflicts", "10", "--max-clusters", "0"],
     "must be at least 1"),
    # BMC runs from reset only; `--mode init` is still accepted
    (["--budget-conflicts", "10", "--mode", "inductive"],
     "invalid choice: 'inductive'"),
], ids=["budget-conflicts-0", "time-budget-negative", "time-budget-nan",
        "time-budget-inf", "seed-negative", "max-frames-negative",
        "both-budgets", "patterns-0", "max-clusters-0", "mode-inductive"])
def test_out_of_range_option_is_usage_error(corpus, tmp_path, capsys, flags,
                                            message):
    out = tmp_path / "db"
    with pytest.raises(SystemExit) as exc:
        cli.main(["offline", str(corpus / "ctr.aag"),
                  str(corpus / "twoctr.aag"), "--out-dir", str(out)] + flags)
    assert exc.value.code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_assoc_is_unknown_option(corpus, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", str(corpus / "unknown.aag"),
                  "--db-dir", str(tmp_path / "db"),
                  "--out-dir", str(tmp_path / "run"),
                  "--assoc", "greedy", "--budget-conflicts", "10"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments: --assoc" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("offline", ["--pca-threshold", "0.5"]), ("verify", ["--delta", "3"])],
    ids=["pca-threshold", "delta"])
def test_fixed_parameters_are_unknown_options(corpus, tmp_path, capsys,
                                              command, flags):
    # the PCA keeps 95% of the variance and the pruning window is
    # online.default_delta: neither is an option
    out = tmp_path / "out"
    inputs = ([str(corpus / "ctr.aag"), str(corpus / "twoctr.aag")]
              if command == "offline" else
              [str(corpus / "unknown.aag"), "--db-dir", str(tmp_path / "db")])
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *inputs, "--out-dir", str(out),
                  "--budget-conflicts", "10", *flags])
    assert exc.value.code == cli.EXIT_USAGE
    assert ("unrecognized arguments: " + " ".join(flags)
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--embed", "sim"], ["--tensors", "x"]],
                         ids=["embed", "tensors"])
def test_offline_embed_and_tensors_are_unknown_options(corpus, tmp_path,
                                                       capsys, flags):
    out = tmp_path / "db"
    with pytest.raises(SystemExit) as exc:
        cli.main(["offline", str(corpus / "ctr.aag"),
                  str(corpus / "twoctr.aag"), "--out-dir", str(out),
                  "--budget-conflicts", "10"] + flags)
    assert exc.value.code == cli.EXIT_USAGE
    assert ("unrecognized arguments: " + " ".join(flags)
            in capsys.readouterr().err)
    assert not out.exists()


def test_report_is_an_unknown_command(tmp_path, capsys):
    # verify writes the figure data; no second command reads it back
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", str(tmp_path)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "invalid choice: 'report'" in capsys.readouterr().err


def count_runs(monkeypatch, log):
    """Appends one line per BMC run to `log`, a file, since a forked
    child's runs would miss an in-process list."""
    for name in ("check_single", "check_cluster", "run_with_budget"):
        run = getattr(bmc, name)

        def counting(*args, run=run, name=name):
            with open(log, "a") as fh:
                fh.write(f"{name}\n")
            return run(*args)

        monkeypatch.setattr(bmc, name, counting)


def test_offline_same_base_name_twice_is_data_error(corpus, tmp_path,
                                                     monkeypatch, caplog):
    other = tmp_path / "other"
    other.mkdir()
    (other / "ctr.aag").write_text((corpus / "twoctr.aag").read_text())
    log = tmp_path / "runs.txt"
    count_runs(monkeypatch, log)
    out = tmp_path / "db"
    argv = ["offline", str(corpus / "ctr.aag"), str(other / "ctr.aag"),
            str(corpus / "miter.aag"), "--out-dir", str(out)] + COMMON
    assert cli.main(argv) == cli.EXIT_DATA
    assert "two design files named ctr" in caplog.text
    assert not out.exists() and not log.exists()


def test_out_dir_that_is_a_file_is_data_error(corpus, tmp_path, monkeypatch,
                                              caplog):
    db = tmp_path / "db"
    assert run_offline(corpus, db) == cli.EXIT_OK
    taken = tmp_path / "taken"
    taken.write_text("")
    log = tmp_path / "runs.txt"
    count_runs(monkeypatch, log)
    assert run_offline(corpus, taken) == cli.EXIT_DATA
    assert cli.main(["verify", str(corpus / "unknown.aag"),
                     "--db-dir", str(db), "--out-dir", str(taken),
                     "--baseline"] + COMMON[:-2]) == cli.EXIT_DATA
    assert caplog.text.count("cannot create output directory") == 2
    assert not log.exists()


def test_offline_computes_each_cone_once(corpus, tmp_path, monkeypatch):
    log = tmp_path / "cones.txt"
    coi_vars = netlist._coi_vars

    def counting(n, p):
        with open(log, "a") as fh:
            fh.write(f"{n.name} {p}\n")
        return coi_vars(n, p)

    monkeypatch.setattr(netlist, "_coi_vars", counting)
    assert run_offline(corpus, tmp_path / "db") == cli.EXIT_OK
    want = []
    for name in ("ctr", "twoctr", "miter"):
        n = parse_aiger((corpus / f"{name}.aag").read_text())
        want += [f"{name} {p}" for p in range(n.num_properties)]
    assert sorted(log.read_text().splitlines()) == sorted(want)


def test_offline_shares_standalone_runs_of_one_bad_literal(tmp_path,
                                                           monkeypatch):
    # properties 0 and 1 are copies: one standalone run answers both
    path = tmp_path / "miter.aag"
    path.write_text(serialize_aiger(parity_miter(width=4, copies=2,
                                                 variants=2)))
    n = parse_aiger(path.read_text(), name="miter")
    assert n.properties[0] == n.properties[1] != n.properties[2]
    ran, standalone = [], {}
    check_single, unknown_record = bmc.check_single, online.unknown_record

    def counting(n, p, cfg):
        ran.append(p)
        return check_single(n, p, cfg)

    def recording(n, design="", verdicts=None):
        standalone.update(verdicts)
        return unknown_record(n, design, verdicts)

    # one design is one job, which runs in this process
    monkeypatch.setattr(bmc, "check_single", counting)
    monkeypatch.setattr(online, "unknown_record", recording)
    assert cli.main(["offline", str(path), "--out-dir", str(tmp_path / "db")]
                    + COMMON) == cli.EXIT_OK
    assert ran == [0, 2]
    cfg = bmc.BmcConfig(conflict_budget=300, max_frames=8, seed=1)
    assert sorted(standalone) == [0, 1, 2]
    for p, v in standalone.items():
        assert v == check_single(n, p, cfg), p


@pytest.mark.parametrize("flags, fixed, reused", [
    (["--budget-conflicts", "300"], None,
     {("miter", (0, 1)), ("rand", (1, 3))}),
    # stops the miter's standalone runs, not those of the random design
    (["--budget-conflicts", "100"], None, {("rand", (1, 3))}),
    (["--time-budget", "0.05"], None, set()),
    # {1, 2} and {0, 1, 2} repeat the literals of {0, 2}, but only a
    # cluster of one literal takes a run's verdicts: its standalone run's
    (["--budget-conflicts", "300"], ((0, 1), (0, 2), (1, 2), (0, 1, 2)),
     {("miter", (0, 1))}),
], ids=["conflicts-300", "conflicts-100", "time", "fixed-family"])
def test_offline_reuses_a_run_only_where_it_is_exact(tmp_path, monkeypatch,
                                                     flags, fixed, reused):
    # each design has a cluster of two copies of one bad literal, which
    # repeats a standalone run; a cluster run is skipped only where that
    # run is deterministic and did not stop, and the rows then equal
    # those of running every cluster
    if fixed is not None:
        monkeypatch.setattr(clusterer, "build_family", lambda *a, **k:
                            clusterer.ClusterFamily(tuple(
                                clusterer.Cluster(frozenset(m), "fixed")
                                for m in fixed)))
    designs = {
        "miter": parity_miter(width=5, copies=2, variants=3, name="miter"),
        "rand": random_netlist(random.Random(7), num_bads=4, name="rand"),
    }
    assert designs["miter"].properties[0] == designs["miter"].properties[1]
    assert designs["rand"].properties[1] == designs["rand"].properties[3]
    paths = []
    for name, n in designs.items():
        paths.append(tmp_path / f"{name}.aag")
        paths[-1].write_text(serialize_aiger(n))
    log = tmp_path / "clusters.txt"
    check_cluster = bmc.check_cluster

    def logging(n, members, cfg):
        with open(log, "a") as fh:
            fh.write(f"{n.name} {' '.join(map(str, members))}\n")
        return check_cluster(n, members, cfg)

    monkeypatch.setattr(bmc, "check_cluster", logging)
    out = tmp_path / "db"
    argv = ["offline"] + [str(p) for p in paths] + [
        "--out-dir", str(out), "--max-frames", "8", "--mode", "init",
        "--seed", "1", "--patterns", "128"] + flags
    assert cli.main(argv) == cli.EXIT_OK
    monkeypatch.setattr(bmc, "check_cluster", check_cluster)

    db_paths = store.db_paths(str(out))
    db2 = store.read_db(store.DB2, db_paths[store.DB2])
    cfg = cli._bmc_config(cli.build_parser().parse_args(argv))
    rows, every = [], set()
    for name, n in designs.items():
        family = clusterer.build_family(
            {r.property: r.vector for r in db2 if r.design == name}, seed=1)
        runs = [(c.members, check_cluster(n, sorted(c.members),
                                          cfg).per_property)
                for c in family.clusters]
        every |= {(name, tuple(sorted(c.members))) for c in family.clusters}
        standalone = {p: bmc.check_single(n, p, cfg)
                      for p in range(n.num_properties)}
        imap = gain.build_influencing_map(name, standalone, runs)
        rows += [store.InfluenceRecord(name, p, imap.influencing[p],
                                       tuple(imap.records[p]))
                 for p in sorted(imap.influencing)
                 if imap.influencing[p] is not None]
    ran = {(name, tuple(map(int, members))) for name, *members in
           (line.split() for line in log.read_text().splitlines())}
    assert len(log.read_text().splitlines()) == len(ran)
    assert reused <= every and ran == every - reused
    if cfg.deterministic:
        direct = str(tmp_path / "direct.mpb")
        store.write_db(store.DB3, rows, direct)
        assert store.read_text(direct) == store.read_text(db_paths[store.DB3])

def test_offline_all_designs_unparseable(tmp_path):
    bad = tmp_path / "bad.aag"
    bad.write_text("not an aiger file\n")
    argv = ["offline", str(bad), "--out-dir", str(tmp_path / "db"),
            "--budget-conflicts", "10"]
    assert cli.main(argv) == cli.EXIT_DATA


def test_offline_fits_pca_before_any_bmc_run(tmp_path, monkeypatch, caplog):
    design = tmp_path / "one.aag"
    design.write_text(serialize_aiger(counter(3, (5,))))
    # a forked child's runs would miss an in-process list: count in a file
    log = tmp_path / "runs.txt"
    check_single = bmc.check_single

    def counting(n, p, cfg):
        with open(log, "a") as fh:
            fh.write(f"{p}\n")
        return check_single(n, p, cfg)

    monkeypatch.setattr(bmc, "check_single", counting)
    argv = ["offline", str(design), "--out-dir", str(tmp_path / "db")] + COMMON
    assert cli.main(argv) == cli.EXIT_DATA
    assert "need at least 2 property embeddings" in caplog.text
    assert not log.exists()


def test_offline_runs_no_cluster_of_a_one_property_design(corpus, tmp_path,
                                                        monkeypatch):
    # a design of one property gets its DB1 record and embedding, and no
    # cluster: its DB3 has no row and BMC runs no cluster of it
    design = tmp_path / "one.aag"
    design.write_text(serialize_aiger(counter(3, (5,))))
    log = tmp_path / "clusters.txt"
    check_cluster = bmc.check_cluster

    def logging(n, members, cfg):
        with open(log, "a") as fh:
            fh.write(f"{n.name}\n")
        return check_cluster(n, members, cfg)

    monkeypatch.setattr(bmc, "check_cluster", logging)
    out = tmp_path / "db"
    assert cli.main(["offline", str(corpus / "ctr.aag"), str(design),
                     "--out-dir", str(out)] + COMMON) == cli.EXIT_OK
    paths = store.db_paths(str(out))
    db1 = store.read_db(store.DB1, paths[store.DB1])
    db2 = store.read_db(store.DB2, paths[store.DB2])
    db3 = store.read_db(store.DB3, paths[store.DB3])
    assert [r.design for r in db1] == ["ctr", "one"]
    assert [(r.design, r.property) for r in db2] == [
        ("ctr", 0), ("ctr", 1), ("one", 0)]
    assert "one" not in {r.design for r in db3}
    assert set(log.read_text().split()) == {"ctr"}


def test_offline_skips_unparseable_design(corpus, tmp_path):
    bad = tmp_path / "bad.aag"
    bad.write_text("garbage\n")
    out = tmp_path / "db"
    argv = ["offline", str(bad),
            str(corpus / "ctr.aag"), str(corpus / "twoctr.aag"),
            "--out-dir", str(out)] + COMMON
    assert cli.main(argv) == cli.EXIT_OK
    db1 = store.read_db(store.DB1, store.db_paths(str(out))[store.DB1])
    assert sorted(r.design for r in db1) == ["ctr", "twoctr"]


# AIGER documents that break one rule each: an operand defined after its
# gate, a reset that is not 0, 1 or the latch's own literal, a bad literal
# beyond the variable count and a header whose counts disagree
MALFORMED_AIGER = {
    "operand": ("aag 3 1 0 0 2\n2\n4 6 2\n6 2 2\n",
                "references undefined literal 6"),
    "reset": ("aag 1 0 1 0 0\n2 2 5\n", "bad reset value 5"),
    "bad-range": ("aag 1 1 0 0 0 1\n2\n5\n", "literal 5 exceeds variable count"),
    "maxvar": ("aag 2 1 0 0 0\n2\n", "maximum variable index 2 != I+L+A = 1"),
}


@pytest.mark.parametrize("text, message", MALFORMED_AIGER.values(),
                         ids=MALFORMED_AIGER)
def test_verify_malformed_unknown_is_data_error(tmp_path, caplog, text,
                                                message):
    unknown = tmp_path / "unk.aag"
    unknown.write_text(text)
    run = tmp_path / "run"
    argv = ["verify", str(unknown), "--db-dir", str(empty_db(tmp_path)),
            "--out-dir", str(run), "--budget-conflicts", "10"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"cannot load {unknown}: " in caplog.text and message in caplog.text
    assert not run.exists()


@pytest.mark.parametrize("text, message", MALFORMED_AIGER.values(),
                         ids=MALFORMED_AIGER)
def test_offline_skips_malformed_design(corpus, tmp_path, caplog, text,
                                        message):
    bad = tmp_path / "bad.aag"
    bad.write_text(text)
    out = tmp_path / "db"
    argv = ["offline", str(bad),
            str(corpus / "ctr.aag"), str(corpus / "twoctr.aag"),
            "--out-dir", str(out)] + COMMON
    assert cli.main(argv) == cli.EXIT_OK
    assert f"skipping {bad}: " in caplog.text and message in caplog.text
    db1 = store.read_db(store.DB1, store.db_paths(str(out))[store.DB1])
    assert sorted(r.design for r in db1) == ["ctr", "twoctr"]


def test_offline_skips_non_utf8_design(corpus, tmp_path, caplog):
    bad = tmp_path / "bad.aag"
    bad.write_bytes(b"aag 1 1 0 0 0\n\xff\n")
    out = tmp_path / "db"
    assert cli.main(["offline", str(bad), "--out-dir", str(out),
                     "--budget-conflicts", "10"]) == cli.EXIT_DATA
    argv = ["offline", str(bad),
            str(corpus / "ctr.aag"), str(corpus / "twoctr.aag"),
            "--out-dir", str(out)] + COMMON
    assert cli.main(argv) == cli.EXIT_OK
    assert f"skipping {bad}" in caplog.text
    db1 = store.read_db(store.DB1, store.db_paths(str(out))[store.DB1])
    assert sorted(r.design for r in db1) == ["ctr", "twoctr"]


def test_offline_skips_reserved_design_name(corpus, tmp_path, caplog):
    bad = tmp_path / "a,b.aag"
    bad.write_text((corpus / "ctr.aag").read_text())
    out = tmp_path / "db"
    assert cli.main(["offline", str(bad), "--out-dir", str(out),
                     "--budget-conflicts", "10"]) == cli.EXIT_DATA
    assert not os.path.exists(out / "db1.mpb")
    argv = ["offline", str(bad),
            str(corpus / "ctr.aag"), str(corpus / "twoctr.aag"),
            "--out-dir", str(out)] + COMMON
    assert cli.main(argv) == cli.EXIT_OK
    assert f"skipping {bad}: design id 'a,b'" in caplog.text
    db1 = store.read_db(store.DB1, store.db_paths(str(out))[store.DB1])
    assert sorted(r.design for r in db1) == ["ctr", "twoctr"]


# every line boundary of `str.splitlines`, which the readers of the
# databases and of the campaign report split rows on
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("ch", LINE_BREAKS, ids=lambda ch: f"U+{ord(ch):04X}")
def test_names_survive_the_round_trip(corpus, tmp_path, ch):
    # each command either rejects a design name (exit 3) or writes files
    # that the later commands read back
    bad = tmp_path / f"ctr{ch}x.aag"
    bad.write_text((corpus / "ctr.aag").read_text())
    db = tmp_path / "db"
    assert cli.main(["offline", str(bad), str(corpus / "ctr.aag"),
                     str(corpus / "twoctr.aag"),
                     "--out-dir", str(db)] + COMMON) == cli.EXIT_OK
    for i, name in enumerate(("unknown", f"un{ch}k")):
        unknown = tmp_path / f"{name}.aag"
        unknown.write_text((corpus / "unknown.aag").read_text())
        run = tmp_path / f"run{i}"
        rc = cli.main(["verify", str(unknown), "--db-dir", str(db),
                       "--out-dir", str(run), "--baseline",
                       "--budget-conflicts", "300", "--max-frames", "8",
                       "--mode", "init", "--seed", "1"])
        assert rc in (cli.EXIT_OK, cli.EXIT_DATA)
        if i == 0:   # a plain name: only the database could be rejected
            assert rc == cli.EXIT_OK
        if rc != cli.EXIT_OK:
            assert not (run / "report.txt").exists()


def empty_db(tmp_path, db1=b"mpbdb 1 db1\n"):
    d = tmp_path / "db"
    d.mkdir()
    (d / "db1.mpb").write_bytes(db1)
    (d / "db3.mpb").write_bytes(b"mpbdb 1 db3\n")
    return d


def test_verify_non_utf8_unknown(tmp_path, caplog):
    unknown = tmp_path / "unk.aag"
    unknown.write_bytes(b"aag 0 0 0 0 0\n\xff\n")
    argv = ["verify", str(unknown), "--db-dir", str(empty_db(tmp_path)),
            "--out-dir", str(tmp_path / "run"), "--budget-conflicts", "10"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"cannot load {unknown}" in caplog.text


def test_verify_non_utf8_database(corpus, tmp_path, caplog):
    db = empty_db(tmp_path, db1=b"mpbdb 1 db1\nctr|\xff\n")
    argv = ["verify", str(corpus / "unknown.aag"), "--db-dir", str(db),
            "--out-dir", str(tmp_path / "run"), "--budget-conflicts", "10"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "line 2: " in caplog.text and "not UTF-8" in caplog.text


def test_verify_rejects_db1_numbers_aiger_would_reject(corpus, tmp_path,
                                                       caplog):
    # a sign, a non-ASCII digit and `_` each read as a number to `int`
    row = "k0|-5,\u0663,1_0|2|-40,2,4,SAT,3,4.0;1,2,4,UNDET,-1,4.0"
    db = empty_db(tmp_path, db1=f"mpbdb 1 db1\n{row}\n".encode())
    argv = ["verify", str(corpus / "unknown.aag"), "--db-dir", str(db),
            "--out-dir", str(tmp_path / "run"), "--budget-conflicts", "10"]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "line 2: bad number '-5'" in caplog.text


def raise_assertion():
    raise AssertionError("child broke")


def raise_data_error():
    raise netlist.DataError("child broke")


@pytest.mark.parametrize("action, code, message", [
    (raise_assertion, cli.EXIT_INTERNAL,
     "ERROR: internal invariant violation: child broke"),
    (raise_data_error, cli.EXIT_DATA, "ERROR: child broke"),
    (lambda: os._exit(1), cli.EXIT_INTERNAL, "and sent no result"),
], ids=["assertion", "data-error", "no-result"])
def test_offline_reports_child_errors(corpus, tmp_path, monkeypatch, caplog,
                                      action, code, message):
    parent = os.getpid()
    check_cluster = bmc.check_cluster

    def failing_in_child(*args):
        if os.getpid() != parent:
            action()
        return check_cluster(*args)

    monkeypatch.setattr(bmc, "check_cluster", failing_in_child)
    assert run_offline(corpus, tmp_path / "db") == code
    last = caplog.records[-1]
    assert f"{last.levelname}: {last.getMessage()}".endswith(message)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_two_processes_write_the_same_bytes(corpus, tmp_path, monkeypatch):
    def run(out):
        assert run_offline(corpus, out / "db") == cli.EXIT_OK
        assert cli.main(["verify", str(corpus / "unknown.aag"),
                         "--db-dir", str(out / "db"),
                         "--out-dir", str(out / "run"), "--baseline",
                         "--budget-conflicts", "300", "--max-frames", "8",
                         "--mode", "init", "--seed", "1"]) == cli.EXIT_OK
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    forked = run(tmp_path / "forked")
    monkeypatch.setattr(parallel, "map2",
                        lambda fn, jobs, costs: [fn(job) for job in jobs])
    sequential = run(tmp_path / "sequential")
    assert "db/db3.mpb" in forked and "run/report.txt" in forked
    assert sequential == forked


def test_python_dash_m_runs_the_cli(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "clusterbmc", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0, shown.stderr[-2000:]
    assert shown.stdout.startswith("usage: clusterbmc")
    assert run().returncode == 2
