"""The benchmark's span tracer still finds every function it wraps.

`bench/spans.py` patches clusterbmc from outside by name, so renaming or
deleting a traced function breaks `bench/run.py --trace 1`; the first test
instruments and restores the package without running anything.  The
tracer also counts `netlist.unfold_ands` from the triples that
`UnfoldBuilder.add_frame` returns, so the second checks that a BMC run
still unfolds one triple per AND of its cone, XOR inner gates included.
"""

import importlib
import os

from clusterbmc import bmc, cli, clusterer, netlist
from clusterbmc.circuits import parity_miter

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
    kept = len(n.cone(1)[2])
    assert n.xors() and kept < n.num_ands
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        bmc.check_single(n, 1, bmc.BmcConfig(max_frames=2, seed=0))
    finally:
        tracer.unpatch()
    assert tracer.counts["bmc.frames"] == 3
    assert tracer.counts["netlist.unfold_ands"] == 3 * kept
