"""The benchmark's span tracer still finds every function it wraps.

`bench/spans.py` patches clusterbmc from outside by name, so renaming or
deleting a traced function breaks `bench/run.py --trace 1`; the first test
instruments and restores the package without running anything.  The
tracer also counts `netlist.unfold_ands` from the triples that
`UnfoldBuilder.add_frame` returns, so the second checks that a BMC run
still unfolds one triple per AND of its cone, XOR inner gates included.
The third checks that the tracer's budget of each online cluster run
still agrees with the program's at the benchmark's budget.  The fourth
checks that the tracer's `satcore.clauses`, which it reads from each
session's decoded `clauses`, still counts the clauses the encoder added.
"""

import importlib
import os
import random

from clusterbmc import bmc, cli, clusterer, netlist, parallel, satcore
from clusterbmc.circuits import parity_miter
from clusterbmc.netlist import serialize_aiger
from oracles import CountingSession, xor_gates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_spans(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    return importlib.import_module("spans")


def test_instrument_then_unpatch_restores_originals(monkeypatch):
    spans = import_spans(monkeypatch)
    originals = {
        "check_single": bmc.check_single,
        "add_frame": netlist.UnfoldBuilder.__dict__["add_frame"],
        "kmeans": clusterer.kmeans,
        "cmd_offline": cli.cmd_offline,
    }
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        assert bmc.check_single is not originals["check_single"]
        assert cli.cmd_offline is not originals["cmd_offline"]
    finally:
        tracer.unpatch()
    assert bmc.check_single is originals["check_single"]
    assert netlist.UnfoldBuilder.__dict__["add_frame"] is originals["add_frame"]
    assert clusterer.kmeans is originals["kmeans"]
    assert cli.cmd_offline is originals["cmd_offline"]


def test_traced_unfold_counts_one_triple_per_kept_and(monkeypatch):
    spans = import_spans(monkeypatch)
    n = parity_miter(width=6, variants=3)
    kept = netlist.extract_coi(n, 1)[2]
    assert xor_gates(n) and kept < n.num_ands
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        bmc.check_single(n, 1, bmc.BmcConfig(max_frames=2, seed=0))
    finally:
        tracer.unpatch()
    assert tracer.counts["bmc.frames"] == 3
    assert tracer.counts["netlist.unfold_ands"] == 3 * kept


def test_traced_verify_bank_reads_no_budget_overshoot(monkeypatch, tmp_path):
    spans = import_spans(monkeypatch)
    from workloads import VerifyBank, _budget_args, bank
    rng = random.Random(0)
    args = _budget_args(VerifyBank.BUDGET, VerifyBank.FRAMES, 1)
    known = []
    for i in range(2):
        path = tmp_path / f"known{i}.aag"
        path.write_text(serialize_aiger(bank(rng, f"known{i}", 3)))
        known.append(str(path))
    db = str(tmp_path / "db")
    assert cli.main(["offline", *known, "--out-dir", db, "--patterns", "256",
                     "--max-clusters", "6", *args]) == 0
    unseen = tmp_path / "unseen.aag"
    unseen.write_text(serialize_aiger(bank(rng, "unseen")))
    # every run on this process, so the tracer sees all of them
    monkeypatch.setattr(parallel, "map2",
                        lambda fn, jobs, costs: [fn(job) for job in jobs])
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        assert cli.main(["verify", str(unseen), "--db-dir", db, "--out-dir",
                         str(tmp_path / "run"), "--baseline", *args]) == 0
    finally:
        tracer.unpatch()
    assert tracer.counts["bmc.runs"] > 0
    assert tracer.counts["bmc.budget_overshoots"] == 0


def test_traced_clause_count_equals_the_encoders(monkeypatch, tmp_path):
    spans = import_spans(monkeypatch)
    from workloads import OfflineMiter, _budget_args, miter
    rng = random.Random(0)
    paths = []
    for w in OfflineMiter.WIDTHS:
        path = tmp_path / f"m{w}.aag"
        path.write_text(serialize_aiger(miter(rng, w, f"m{w}")))
        paths.append(str(path))
    sessions = []

    def new_solver(seed=0):
        sessions.append(CountingSession(seed))
        return sessions[-1]

    monkeypatch.setattr(satcore, "new_solver", new_solver)
    monkeypatch.setattr(parallel, "map2",
                        lambda fn, jobs, costs: [fn(job) for job in jobs])
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        tracer.begin_op(0)
        assert cli.main(["offline", *paths, "--out-dir", str(tmp_path / "db"),
                         *_budget_args(OfflineMiter.BUDGET,
                                       OfflineMiter.FRAMES, 1)]) == 0
        tracer.end_op()
    finally:
        tracer.unpatch()
    assert len(sessions) > len(paths)
    assert tracer.counts["satcore.clauses"] == sum(s.added for s in sessions)
