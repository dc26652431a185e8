"""The benchmark run behind `bench/run.py`: set-up, timed operations,
checks, tracing and the printed result.

Imported only after `run.py` has capped the thread count and put the
checkout's `src/` first on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

from clusterbmc import cli

import check
import spans
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def _code_digest() -> str:
    """Digest of the program and benchmark sources the counts depend on."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "clusterbmc"), os.path.dirname(__file__)):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_sha():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _setup(wl, seed, work, n_ops):
    """Sets the workload up until at least three and about a second of
    repetitions are done; returns the first repetition's operations, the
    setup seconds of each, and whether every repetition wrote the same
    bytes."""
    times, digests, ops = [], [], None
    while len(times) < 3 or (sum(times) < 1.0 and len(times) < 30):
        d = os.path.join(work, f"setup{len(times)}")
        os.makedirs(d)
        t0 = time.perf_counter()
        rep_ops = wl.setup(random.Random(seed), d, n_ops)
        times.append(time.perf_counter() - t0)
        digests.append(check.tree_digest(d)[0])
        if ops is None:
            ops = rep_ops
        else:
            shutil.rmtree(d)
    return ops, times, len(set(digests)) == 1


def _run_ops(ops, answers, tracer=None):
    """Runs and checks every operation; the timed interval of each is the
    `cli.main` call alone."""
    results = []
    sink = io.StringIO()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(op.argv)
        except Exception:  # a crash fails this operation, not the run
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        sink.seek(0)
        sink.truncate()
        res = check.OpResult(rc, wall)
        check.check_op(op, answers, res)
        for err in res.errors:
            print(f"op {i}: {err}", file=sys.stderr)
        results.append(res)
        shutil.rmtree(op.out_dir, ignore_errors=True)
    return results


def _end_to_end(results, setup_times, ok_frac) -> dict:
    walls = [r.wall_s for r in results]
    verdicts = [v for r in results for v in r.verdicts]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(walls), "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (ok_frac, "ratio"),
        "undecided_frac": (
            sum(v[2] == "UNDET" for v in verdicts) / len(verdicts)
            if verdicts else 1.0, "ratio"),
        "depth_mean": (
            statistics.fmean(v[3] for v in verdicts) if verdicts else 0.0,
            "frames"),
    }


def _compare_counts(path, record, errors):
    """Counts must repeat exactly across runs of the same code, seed and
    run length."""
    try:
        with open(path) as fh:
            old = json.load(fh)
    except (OSError, ValueError):
        return
    if any(old.get(k) != record[k] for k in ("code_digest", "seconds")):
        return
    for key in ("ops", "traced_counts"):
        if key in old and old[key] != record.get(key):
            errors.append(f"{key} differ from the previous run of this "
                          f"code and seed ({os.path.basename(path)})")


def _traced_pass(ops, answers, untraced, errors):
    """Runs the operations again under the tracer; returns their results,
    the per-layer metrics and the tracer."""
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        traced = _run_ops(ops, answers, tracer)
    finally:
        tracer.unpatch()
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if a.counts() != b.counts():
            errors.append(f"op {i}: traced output differs from untraced")
    layer = spans.summarize(tracer)
    gains = [g for r in traced for g in r.gains]
    layer["gain.mean"] = (statistics.fmean(gains) if gains else 0.0, "ratio")
    untraced_wall = sum(r.wall_s for r in untraced)
    traced_wall = sum(r.wall_s for r in traced)
    accounted = sum(layer[f"{x}.self_s"][0] for x in spans.LAYERS)
    layer["trace.wall_s"] = (traced_wall, "s")
    layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    layer["trace.unaccounted_s"] = (traced_wall - accounted, "s")
    return traced, layer, tracer


def run(args) -> int:
    """One benchmark run; prints the table and the JSON result line."""
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    n_ops = max(1, round(args.seconds / wl.nominal_op_s))
    work = os.path.join(ROOT, ".bench_work",
                        f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    errors = []
    try:
        os.makedirs(work)
        ops, setup_times, setup_same = _setup(wl, args.seed, work, n_ops)
        if not setup_same:
            errors.append("setup repetitions wrote different bytes")
        answers = {}
        for op in ops:
            for name, n in op.designs.items():
                answers[name] = ([None] * n.num_properties if op.unreachable
                                 else check.reach_depths(n, op.frames))
        untraced = _run_ops(ops, answers)
        results = untraced
        record = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": _git_sha(),
            "code_digest": _code_digest(),
            "ops": [r.counts() for r in untraced],
        }
        if args.trace:
            traced, layer, tracer = _traced_pass(ops, answers, untraced,
                                                 errors)
            tracer.write(os.path.join(OUT, f"trace_{wl.name}.jsonl"))
            results = untraced + traced
            record["traced_counts"] = {
                k: v for k, (v, unit) in layer.items()
                if unit in spans.DETERMINISTIC_UNITS}
        bench_path = os.path.join(
            OUT, f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json")
        _compare_counts(bench_path, record, errors)

        attempted = len(results) + 1   # the set-up counts as one operation
        failed = min(attempted, sum(r.failed for r in results) + len(errors))
        metrics = _end_to_end(untraced, setup_times,
                              (attempted - failed) / attempted)
        record["end_to_end"] = {k: v for k, (v, _u) in metrics.items()}
        if args.trace:
            record["per_layer"] = {k: v for k, (v, _u) in layer.items()}
        record["op_wall_s"] = [r.wall_s for r in results]
        record["setup_s"] = setup_times
        with open(bench_path, "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    shown = layer if args.trace else metrics
    print(f"{wl.name} seed={args.seed} ops={len(ops)} "
          f"setup_reps={len(setup_times)} trace={args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:28s} {value!r:>24} {unit}")
    print(f"  op_s_p50 is the median of {len(untraced)} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0
