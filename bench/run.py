"""Benchmark of `clusterbmc offline` and `clusterbmc verify --baseline`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout holding `src/clusterbmc`).
The workload's fixtures are generated from `--seed` and set up several
times (`setup_s` is the median); then the timed phase runs a fixed list of
operations, each one `clusterbmc` command through `clusterbmc.cli.main`.
`--seconds` sets the length of that list: the workload's nominal operation
time divides it, so a faster program finishes sooner on the same work.
Every operation's output is checked against known answers and its
deterministic counts are compared with those of earlier runs.

`--trace 0` prints the end-to-end metrics of an untraced timed phase.
`--trace 1` runs the same phase untraced and then traced, and prints the
per-layer metrics of the traced phase together with the tracing overhead.
The last line of standard output is one JSON object; a table for people
comes before it.  Records go to `.bench_out/`: the spans of the last
traced run per workload, and per workload, seed and trace setting the
counts, wall seconds, code digest and git commit.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="offline-miter, offline-many or verify-bank")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "clusterbmc", "__init__.py")):
        print(f"error: no clusterbmc sources under {SRC}", file=sys.stderr)
        return 2
    # one process per run, at most nproc threads, BLAS included: set before
    # numpy is first imported
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, SRC)

    import clusterbmc

    if not os.path.abspath(clusterbmc.__file__).startswith(SRC + os.sep):
        print(f"error: imported clusterbmc from {clusterbmc.__file__}",
              file=sys.stderr)
        return 2
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
