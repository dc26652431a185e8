import os

import pytest

from clusterbmc import bmc, cli, embed, parallel, store
from clusterbmc.circuits import counter, parity_miter, two_counters
from clusterbmc.netlist import serialize_aiger


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


def test_verify_with_frame_bound_only(corpus, tmp_path):
    flags = ["--max-frames", "6", "--mode", "init"]
    out = tmp_path / "db"
    assert cli.main(["offline", str(corpus / "ctr.aag"),
                     str(corpus / "twoctr.aag"), "--out-dir", str(out),
                     "--patterns", "128"] + flags) == cli.EXIT_OK
    run_dir = tmp_path / "run"
    assert cli.main(["verify", str(corpus / "unknown.aag"), "--db-dir", str(out),
                     "--out-dir", str(run_dir)] + flags) == cli.EXIT_OK
    rows = (run_dir / "report.txt").read_text().splitlines()[2:]
    # both properties ran in one converted cluster and were resolved
    assert [r.split("|")[1:3] for r in rows] == [["0 1", "SAT"], ["0 1", "SAT"]]


def test_report_without_columns_is_data_error(tmp_path):
    (tmp_path / "report.txt").write_text("campaign x matched=y assoc=z\n")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_DATA


REPORT = ("campaign u matched=b assoc=optimal\n"
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


def test_offline_all_designs_unparseable(tmp_path):
    bad = tmp_path / "bad.aag"
    bad.write_text("not an aiger file\n")
    argv = ["offline", str(bad), "--out-dir", str(tmp_path / "db"),
            "--budget-conflicts", "10"]
    assert cli.main(argv) == cli.EXIT_DATA


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
