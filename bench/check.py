"""Reads what one operation wrote and checks it against known answers.

The known answers are independent of the package: parity miters and banks
have unreachable bad outputs by construction, and random netlists are
solved by the explicit-state search below, which evaluates the AIG with
its own code.  Outputs are parsed from the text files the command wrote,
not through `clusterbmc.store`.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass, field

SAT, UNSAT, UNDET = "SAT", "UNSAT", "UNDET"


# -- known answers ------------------------------------------------------------

def _lit(lit: int, values) -> bool:
    if lit <= 1:
        return bool(lit)
    v = values[lit >> 1]
    return not v if lit & 1 else v


def _step(n, state, inputs):
    values = [False] * (n.max_var + 1)
    for i, v in enumerate(inputs):
        values[i + 1] = v
    for i, v in enumerate(state):
        values[n.num_inputs + 1 + i] = v
    for lhs, a, b in n.ands:
        values[lhs >> 1] = _lit(a, values) and _lit(b, values)
    bads = [_lit(b, values) for b in n.properties]
    return bads, tuple(_lit(latch.next, values) for latch in n.latches)


def reach_depths(n, max_frame: int) -> list:
    """First frame (0 .. max_frame) at which each bad output holds on a
    state reachable from reset, or None; breadth-first over explicit
    states, all properties in one traversal."""
    inits = [()]
    for latch in n.latches:
        choices = (False, True) if latch.reset is None else (bool(latch.reset),)
        inits = [s + (b,) for s in inits for b in choices]
    frontier = set(inits)
    visited = set(frontier)
    input_space = list(itertools.product((False, True), repeat=n.num_inputs))
    depths = [None] * n.num_properties
    for depth in range(max_frame + 1):
        successors = set()
        for state in frontier:
            for inputs in input_space:
                bads, succ = _step(n, state, inputs)
                for p, bad in enumerate(bads):
                    if bad and depths[p] is None:
                        depths[p] = depth
                successors.add(succ)
        frontier = successors - visited
        visited |= successors
        if not frontier:
            break
    return depths


def verdict_ok(status: str, depth, first_bad) -> bool:
    """A verdict agrees with the first reachable bad frame (None: none
    within the bound).  SAT must name that frame; UNDET must not claim a
    refuted frame at or beyond it.  `depth` None means only the status is
    known."""
    if status == SAT:
        return first_bad is not None and depth in (None, first_bad)
    if status == UNDET:
        return first_bad is None or depth is None or depth < first_bad
    if status == UNSAT:
        return first_bad is None
    return False


# -- parsing ------------------------------------------------------------------

def _rows(path: str) -> list:
    with open(path) as fh:
        return [line for line in fh.read().splitlines()[1:] if line]


def read_db1(path: str) -> dict:
    """design -> [(status, depth, cost units)] per property."""
    out = {}
    for line in _rows(path):
        design, _dims, _count, body = line.split("|")
        entries = []
        for entry in body.split(";") if body else []:
            _ci, _cl, _ca, status, depth, elapsed = entry.split(",")
            entries.append((status, int(depth), float(elapsed)))
        out[design] = entries
    return out


def read_db3(path: str) -> list:
    """Per row: (design, property, gain of the influencing cluster, every
    gain record's transition)."""
    out = []
    for line in _rows(path):
        design, prop, influencing, body = line.split("|")
        records = [entry.split(":") for entry in body.split(";")]
        chosen = next(r for r in records if r[0] == influencing)
        out.append((design, int(prop), float(chosen[2]),
                    [r[1] for r in records]))
    return out


def read_report(path: str) -> list:
    """Campaign rows as dicts keyed by the report's own header."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[1].split("|")
    return [dict(zip(header, line.split("|"))) for line in lines[2:] if line]


def tree_digest(path: str) -> tuple:
    """(sha256 over names and bytes, total bytes) of every file below path."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(full, path).encode() + b"\0" + data)
            total += len(data)
    return h.hexdigest(), total


# -- one operation --------------------------------------------------------------

@dataclass
class OpResult:
    rc: int
    wall_s: float
    errors: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)  # (design, prop, status, depth)
    cost_units: float = 0.0
    gains: list = field(default_factory=list)
    digest: str = ""
    out_bytes: int = 0

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.errors)

    def counts(self) -> dict:
        """Everything about the operation that must repeat exactly."""
        return {"rc": self.rc, "cost_units": self.cost_units,
                "out_bytes": self.out_bytes, "digest": self.digest,
                "verdicts": [list(v) for v in self.verdicts]}


def check_offline(op, answers: dict, res: OpResult):
    db1 = read_db1(os.path.join(op.out_dir, "db1.mpb"))
    for design, n in op.designs.items():
        entries = db1.get(design)
        if entries is None or len(entries) != n.num_properties:
            res.errors.append(f"{design}: DB1 row missing or short")
            continue
        for p, (status, depth, cost) in enumerate(entries):
            res.verdicts.append((design, p, status, depth))
            res.cost_units += cost
            if not verdict_ok(status, depth, answers[design][p]):
                res.errors.append(f"{design} P{p}: standalone {status}@{depth}, "
                                  f"first bad frame {answers[design][p]}")
    for design, p, gain, transitions in read_db3(
            os.path.join(op.out_dir, "db3.mpb")):
        res.gains.append(gain)
        for tr in transitions:
            # cluster verdicts reach the output only as the status after
            # "_TO_"; a pair like SAT->UNSAT is OTHER and means an unsound run
            if not verdict_ok(tr.split("_TO_")[-1], None, answers[design][p]):
                res.errors.append(f"{design} P{p}: cluster transition {tr}, "
                                  f"first bad frame {answers[design][p]}")


def check_verify(op, answers: dict, res: OpResult):
    (design, n), = op.designs.items()
    rows = read_report(os.path.join(op.out_dir, "report.txt"))
    if sorted(int(r["property"]) for r in rows) != list(range(n.num_properties)):
        res.errors.append(f"{design}: report rows do not cover every property")
        return
    for r in rows:
        p = int(r["property"])
        first_bad = answers[design][p]
        res.verdicts.append((design, p, r["status"], int(r["depth"])))
        res.cost_units += float(r["elapsed"]) + float(r["baseline_elapsed"])
        res.gains.append(float(r["gain"]))
        for status, depth in ((r["status"], r["depth"]),
                              (r["baseline_status"], r["baseline_depth"])):
            if not verdict_ok(status, int(depth), first_bad):
                res.errors.append(f"{design} P{p}: {status}@{depth}, "
                                  f"first bad frame {first_bad}")


def check_op(op, answers: dict, res: OpResult):
    """Fills `res` from the operation's output directory."""
    if res.rc != 0:
        res.errors.append(f"exit code {res.rc}")
        return
    try:
        if op.argv[0] == "offline":
            check_offline(op, answers, res)
        else:
            check_verify(op, answers, res)
    except (OSError, ValueError, KeyError, StopIteration) as e:
        res.errors.append(f"unreadable output: {type(e).__name__}: {e}")
    res.digest, res.out_bytes = tree_digest(op.out_dir)
