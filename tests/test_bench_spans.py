"""The benchmark's span tracer still finds every function it wraps.

`bench/spans.py` patches clusterbmc from outside by name, so renaming or
deleting a traced function breaks `bench/run.py --trace 1`; this test
instruments and restores the package without running anything.
"""

import importlib
import os

from clusterbmc import bmc, cli, clusterer, netlist

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_instrument_then_unpatch_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    spans = importlib.import_module("spans")
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
