"""Independent BMC work on two processes: this one and one forked child.

Jobs reach the child through `os.fork()`, so only results cross the pipe,
pickled; a fork and a pipe cost a few milliseconds, a process pool tens.
The split is static: bins are filled longest first by a cost computed from
the input, so every run of the same input gives each process the same
jobs.  Results come back in job order, so output bytes do not depend on
the split.  No thread of the caller runs in the child; OpenBLAS, whose
thread pool numpy starts, stops that pool before a fork and restarts it
when next called.
"""

from __future__ import annotations

import os
import pickle


class ChildLost(RuntimeError):
    """The forked half of a `map2` call ended without sending a result."""


def _split(costs):
    """Job indices of two bins, longest job first (LPT): each job joins the
    bin with the smaller load, bin 0 on ties; equal costs go in index
    order."""
    bins, loads = ([], []), [0, 0]
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        b = 0 if loads[0] <= loads[1] else 1
        bins[b].append(i)
        loads[b] += costs[i]
    return bins


def map2(fn, jobs, costs):
    """`[fn(job) for job in jobs]`, bin 0 run here and bin 1 in a forked
    child.  An exception of the child's half is raised here; fewer than
    two jobs run here without a fork."""
    jobs = list(jobs)
    if len(jobs) < 2:
        return [fn(job) for job in jobs]
    mine, theirs = _split(costs)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                msg = (True, [fn(jobs[i]) for i in theirs])
            except BaseException as e:  # sent to the parent, which raises it
                msg = (False, e)
            with os.fdopen(w, "wb") as fh:
                fh.write(pickle.dumps(msg))
            status = 0
        finally:
            # never return into the caller's stack or run its exit handlers
            os._exit(status)
    os.close(w)
    try:
        results = dict(zip(mine, (fn(jobs[i]) for i in mine)))
    finally:
        # the child blocks on a full pipe until it is read: read, then reap
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:   # killed children can leave a partial result
        raise ChildLost(f"forked worker {pid} ended with exit code {code} "
                        f"and sent no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    results.update(zip(theirs, value))
    return [results[i] for i in range(len(jobs))]
