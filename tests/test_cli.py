import os

import pytest

from clusterbmc import bmc, cli, embed, netlist, online, parallel, store
from clusterbmc.circuits import counter, parity_miter, two_counters
from clusterbmc.netlist import INIT, parse_aiger, serialize_aiger


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


def run_offline(corpus, out):
    argv = ["offline",
            str(corpus / "ctr.aag"), str(corpus / "twoctr.aag"),
            str(corpus / "miter.aag"),
            "--out-dir", str(out)] + COMMON
    return cli.main(argv)


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
    out = tmp_path / "db"
    run_offline(corpus, out)
    run_dir = tmp_path / "run"
    argv = ["verify", str(corpus / "unknown.aag"),
            "--db-dir", str(out), "--out-dir", str(run_dir),
            "--baseline",
            "--budget-conflicts", "300", "--max-frames", "8",
            "--mode", "init", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    report = (run_dir / "report.txt").read_text()
    assert report.startswith("campaign unknown ")
    # every property of the unknown design has a row
    assert len(report.strip().splitlines()) == 2 + 2

    assert cli.main(["report", str(run_dir)]) == cli.EXIT_OK
    for name in ("conflicts.csv", "verification_time.csv", "depth_scatter.csv"):
        lines = (run_dir / name).read_text().splitlines()
        assert lines[0] == "x,y"
    scatter = (run_dir / "depth_scatter.csv").read_text().splitlines()
    assert len(scatter) == 3  # header + one point per property
    rows = [line.split("|") for line in report.splitlines()[2:]]
    columns = report.splitlines()[1].split("|")
    want = [f"{r[columns.index('baseline_depth')]},{r[columns.index('depth')]}"
            for r in rows]
    assert scatter[1:] == want


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


def test_report_without_columns_is_data_error(tmp_path):
    (tmp_path / "report.txt").write_text("campaign x matched=y\n")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_DATA


REPORT = ("campaign u matched=b\n"
          "property|cluster|status|depth|elapsed|baseline_status"
          "|baseline_depth|baseline_elapsed|transition|gain\n"
          "0|0 1|UNDET|3|10.0|-|-|-|-|-\n")


def test_report_non_utf8_is_data_error(tmp_path, caplog):
    (tmp_path / "report.txt").write_bytes(REPORT.encode() + b"1|\xff\n")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_DATA
    assert "line 4: " in caplog.text and "not UTF-8" in caplog.text


@pytest.mark.parametrize("csv_text, message", [
    ("x,y\n0,1.0\n1,many\n", "line 3: could not convert"),
    ("x,z\n0,1.0\n", "no column y"),
    ("y\n1.0\n", "no column x"),
], ids=["non-numeric-y", "missing-y", "missing-x"])
def test_report_bad_frame_csv_is_data_error(tmp_path, caplog, csv_text,
                                            message):
    (tmp_path / "report.txt").write_text(REPORT)
    (tmp_path / "cluster_0_1_conflicts.csv").write_text(csv_text)
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_DATA
    assert "cluster_0_1_conflicts.csv: " + message in caplog.text


def test_verify_missing_db_dir(corpus, tmp_path):
    argv = ["verify", str(corpus / "unknown.aag"),
            "--db-dir", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "r"),
            "--budget-conflicts", "10"]
    assert cli.main(argv) == cli.EXIT_DATA


def test_report_missing_campaign(tmp_path):
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_DATA


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
    (["--max-frames", "-3"], "max_frames must not be negative"),
    (["--budget-conflicts", "10", "--patterns", "0"], "must be at least 1"),
    (["--budget-conflicts", "10", "--max-clusters", "0"],
     "must be at least 1"),
    (["--budget-conflicts", "10", "--pca-threshold", "0"],
     "must be in (0, 1]"),
    (["--budget-conflicts", "10", "--pca-threshold", "1.5"],
     "must be in (0, 1]"),
    (["--budget-conflicts", "10", "--tensors", "t.tensor"],
     "--tensors needs --embed import"),
    (["--budget-conflicts", "10", "--embed", "import"],
     "--embed import needs --tensors"),
], ids=["budget-conflicts-0", "time-budget-negative", "max-frames-negative",
        "patterns-0", "max-clusters-0", "pca-threshold-0",
        "pca-threshold-above-1", "tensors-without-import",
        "import-without-tensors"])
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


@pytest.mark.parametrize("delta", ["0", "-5"])
def test_verify_delta_below_one_is_usage_error(corpus, tmp_path, capsys,
                                               delta):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", str(corpus / "unknown.aag"),
                  "--db-dir", str(tmp_path / "db"), "--out-dir", str(out),
                  "--delta", delta, "--budget-conflicts", "10"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


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
    cfg = bmc.BmcConfig(conflict_budget=300, max_frames=8, mode=INIT, seed=1)
    assert sorted(standalone) == [0, 1, 2]
    for p, v in standalone.items():
        assert v == check_single(n, p, cfg), p


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
    argv = ["offline", str(design), "--out-dir", str(tmp_path / "db"),
            "--embed", "sim"] + COMMON
    assert cli.main(argv) == cli.EXIT_DATA
    assert "need at least 2 property embeddings" in caplog.text
    assert not log.exists()


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


def write_tensors(tmp_path, keys):
    paths = []
    for i, (design, p) in enumerate(keys):
        path = str(tmp_path / f"t{i}.tensor")
        embed.export_tensor(
            embed.EmbeddingTensor(design, p, 3, (float(i), 1.0, float(p))),
            path)
        paths.append(path)
    return paths


def run_import(corpus, tmp_path, tensor_paths):
    argv = ["offline", str(corpus / "ctr.aag"), str(corpus / "twoctr.aag"),
            "--out-dir", str(tmp_path / "db"), "--embed", "import",
            "--tensors", *tensor_paths] + COMMON
    return cli.main(argv)


ALL_KEYS = [("ctr", 0), ("ctr", 1), ("twoctr", 0), ("twoctr", 1)]


def test_offline_imports_tensors(corpus, tmp_path):
    assert run_import(corpus, tmp_path,
                      write_tensors(tmp_path, ALL_KEYS)) == cli.EXIT_OK
    db2 = store.read_db(store.DB2,
                        store.db_paths(str(tmp_path / "db"))[store.DB2])
    assert [(r.design, r.property) for r in db2] == ALL_KEYS


@pytest.mark.parametrize("extra", [
    [("ctr", 2)],
    [("twoctr", -1)],
    [("ctr", 0)],
    [("nope", 0)],
    "missing",
    "non-utf8",
], ids=["property-past-end", "negative-property", "duplicate",
        "unknown-design", "missing-file", "non-utf8-file"])
def test_offline_import_rejects_bad_tensors(corpus, tmp_path, extra):
    paths = write_tensors(tmp_path, ALL_KEYS)
    if extra == "missing":
        paths.append(str(tmp_path / "nope.tensor"))
    elif extra == "non-utf8":
        bad = tmp_path / "bad.tensor"
        bad.write_bytes(b"ctr,0,3\n\xff\n")
        paths.append(str(bad))
    else:
        extra_dir = tmp_path / "extra"
        extra_dir.mkdir()
        paths += write_tensors(extra_dir, extra)
    assert run_import(corpus, tmp_path, paths) == cli.EXIT_DATA
    assert not os.path.exists(tmp_path / "db" / "db1.mpb")


def raise_assertion():
    raise AssertionError("child broke")


def raise_data_error():
    raise cli.DataError("child broke")


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
