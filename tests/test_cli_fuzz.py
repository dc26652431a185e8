"""`cli.main` on drawn command lines, input files and directories.

Options take in-range, out-of-range and conflicting values.  Input files
are valid, truncated, not UTF-8, directories or missing; database
directories may lack a file, and output directories may hold a directory
where a file goes.  Every outcome
is exit 0, 2 (argparse's `SystemExit(2)` included) or 3: never exit 4, and
never an exception out of `main`.  An option value that is invalid on its
own, or in conflict with another drawn option, is exit 2.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from clusterbmc import cli
from clusterbmc.circuits import counter, two_counters
from clusterbmc.netlist import serialize_aiger

KINDS = ["valid", "truncated", "non-utf8", "directory", "missing"]

# in-range values, each option drawn or left out; a frame bound comes
# first, so that no run is unbounded
BOUND = ["--max-frames", "3"]
COMMON = {
    "--budget-conflicts": ["40", "1"],
    "--max-frames": ["2", "0"],
    "--seed": ["0", "7"],
    "--mode": ["init"],
}
OFFLINE = {
    "--patterns": ["16", "1"],
    "--max-clusters": ["3", "1"],
}
# at most one option appended last, so that it wins: out of range, not a
# number, of another command, or unknown, so exit 2 on either command;
# `--pca-threshold` and `--delta` are unknown, as their values are fixed
BAD = [("--budget-conflicts", "0"), ("--budget-conflicts", "x"),
       ("--time-budget", "-1"), ("--time-budget", "nan"),
       ("--time-budget", "inf"), ("--max-frames", "-1"), ("--seed", "-1"),
       ("--mode", "bogus"), ("--mode", "inductive"),
       ("--patterns", "0"), ("--max-clusters", "0"),
       ("--pca-threshold", "0.95"), ("--delta", "3"), ("--embed", "import"),
       ("--embed", "bogus"), ("--bogus", "3")]
# valid alone, and exit 2 next to a drawn --budget-conflicts
CONFLICTING = ("--time-budget", "0.02")

# names an output directory may hold as a directory instead of a file
OUTPUTS = ["db1.mpb", "db2.mpb", "db3.mpb", "pca.mpb", "report.txt",
           "cluster_frames.csv"]


def variants(root, name, data):
    """A path of each of KINDS under `root`, the valid one holding `data`."""
    paths = {}
    for kind, body in (("valid", data), ("truncated", data[:len(data) // 2]),
                       ("non-utf8", data[:7] + b"\xff\xfe" + data[7:])):
        paths[kind] = root / f"{kind}-{name}"
        paths[kind].write_bytes(body)
    paths["directory"] = root / f"directory-{name}"
    paths["directory"].mkdir()
    paths["missing"] = root / f"missing-{name}"
    return {kind: str(path) for kind, path in paths.items()}


def damaged_copies(root, name, source, files):
    """Copies of directory `source`: complete, with each of `files` (label
    -> file name) missing, truncated or not UTF-8, and the directory itself
    a file or missing."""
    dirs = {"complete": source}
    for label, f in files.items():
        for kind in ("no", "truncated", "non-utf8"):
            d = root / f"{name}-{kind}-{label}"
            shutil.copytree(source, d)
            if kind == "no":
                os.remove(d / f)
            else:
                data = (d / f).read_bytes()
                (d / f).write_bytes(data[:len(data) // 2]
                                    if kind == "truncated" else b"\xff" + data)
            dirs[f"{kind}-{label}"] = d
    dirs["file"] = root / f"{name}-file"
    dirs["file"].write_text("not a directory\n")
    dirs["missing"] = root / f"{name}-missing"
    return {kind: str(path) for kind, path in dirs.items()}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    designs = {
        "ctr": variants(root, "ctr.aag", serialize_aiger(
            counter(3, (5, 6))).encode()),
        "two": variants(root, "two.aag", serialize_aiger(
            two_counters()).encode()),
    }
    unknown = variants(root, "unk.aag", serialize_aiger(
        two_counters(bits=2, bad_a=2, bad_b=3, name="unk")).encode())

    db = root / "db"
    assert cli.main(["offline", designs["ctr"]["valid"],
                     designs["two"]["valid"], "--out-dir", str(db),
                     "--patterns", "16", "--budget-conflicts", "40",
                     "--max-frames", "3", "--mode", "init"]) == cli.EXIT_OK
    return {
        "root": root, "designs": designs, "unknown": unknown,
        "dbs": damaged_copies(root, "db", db, {
            "db1": "db1.mpb", "db2": "db2.mpb", "db3": "db3.mpb",
            "pca": "pca.mpb"}),
    }


def options(table):
    return st.fixed_dictionaries(
        {flag: st.none() | st.sampled_from(values)
         for flag, values in table.items()})


def flags(chosen):
    return [item for flag, value in chosen.items() if value is not None
            for item in (flag, value)]


def intact_or(intact, damaged):
    """`intact` about half the time, else one of `damaged`."""
    return st.just(intact) | st.sampled_from(damaged)


def damaged(labels):
    return ["file", "missing"] + [f"{kind}-{label}" for label in labels
                                  for kind in ("no", "truncated", "non-utf8")]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(command=st.sampled_from(["offline", "verify"]),
       inputs=st.lists(st.tuples(st.sampled_from(["ctr", "two"]),
                                 intact_or("valid", KINDS[1:])),
                       min_size=1, max_size=3),
       common=options(COMMON), offline=options(OFFLINE),
       baseline=st.booleans(),
       bad=st.none() | st.sampled_from(BAD + [CONFLICTING]),
       db=intact_or("complete", damaged(["db1", "db2", "db3", "pca"])),
       out=st.none() | st.sampled_from(["file"] + OUTPUTS))
def test_main_exits_0_2_or_3(world, command, inputs, common, offline,
                             baseline, bad, db, out):
    work = tempfile.mkdtemp(dir=world["root"])
    out_dir = os.path.join(work, "out")
    if out == "file":
        with open(out_dir, "w") as fh:
            fh.write("not a directory\n")
    elif out is not None:
        os.makedirs(os.path.join(out_dir, out))

    if command == "offline":
        argv = (["offline"]
                + [world["designs"][name][kind] for name, kind in inputs]
                + ["--out-dir", out_dir] + BOUND + flags(common)
                + flags(offline))
    else:
        argv = (["verify", world["unknown"][inputs[0][1]],
                 "--db-dir", world["dbs"][db], "--out-dir", out_dir]
                + BOUND + flags(common)
                + (["--baseline"] if baseline else []))
    if bad is not None:
        argv += list(bad)

    try:
        code = cli.main(argv)
    except SystemExit as e:   # argparse's usage errors
        code = e.code
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA), argv
    if bad in BAD or (bad == CONFLICTING and common["--budget-conflicts"]):
        assert code == cli.EXIT_USAGE, argv
