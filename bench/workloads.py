"""Seeded fixtures and operation lists for the three benchmark workloads.

The seeded inputs come from one `random.Random(seed)`, so a seed names
one set of inputs.  Each workload writes its fixtures (and, for
verify-bank, builds the offline database it reads) in `setup`, then hands
back the list of operations to time.  An operation is one `clusterbmc`
command line, run through `clusterbmc.cli.main`, with the designs its
output is checked against.

All runs use conflict budgets and `--mode init`: budgets make every
verdict, cost unit and database byte deterministic, and initial-state mode
is what the explicit-state reachability oracle computes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from clusterbmc import circuits, cli
from clusterbmc.circuits import AigBuilder
from clusterbmc.netlist import serialize_aiger


class SetupFailed(RuntimeError):
    pass


@dataclass
class Op:
    """One timed command and the designs its output is checked against."""

    argv: list
    out_dir: str
    designs: dict        # design name -> Netlist
    unreachable: bool    # every bad is unreachable by construction
    frames: int


@dataclass
class Workload:
    name: str
    # seconds one operation took on the 2-core x86 host the benchmark was
    # defined on; sets how many operations fill the requested run length
    nominal_op_s: float

    def setup(self, rng: random.Random, work: str, n_ops: int) -> list:
        raise NotImplementedError


def _write(path: str, n) -> str:
    with open(path, "w") as fh:
        fh.write(serialize_aiger(n))
    return path


def _miter_block(b: AigBuilder, off: int, width: int, copies: int,
                 variants: int, rng: random.Random):
    """One parity-equivalence miter over inputs/latches off .. off+width-1.

    Same shape as `circuits.parity_miter`: two XOR chains over the same
    leaves in different orders always agree, so every bad is unreachable,
    yet each frame's refutation needs search.  The seed permutes the
    leaves (the second chain takes them in reverse) and picks the leaf each
    variant conjoins.
    """
    leaves = [b.xor_(b.input_lit(off + i), b.latch_lit(off + i))
              for i in range(width)]
    for i in range(width):
        b.set_latch(off + i, leaves[(i + 1) % width])
    order = rng.sample(leaves, width)
    left, right = order[0], order[-1]
    for lit in order[1:]:
        left = b.xor_(left, lit)
    for lit in order[-2::-1]:
        right = b.xor_(right, lit)
    bad0 = b.xor_(left, right)
    for _ in range(copies):
        b.add_bad(bad0)
    for leaf in rng.sample(leaves, variants - 1):
        b.add_bad(b.and_(bad0, leaf))


def miter(rng: random.Random, width: int, name: str):
    """Single-block miter: two copies of the miter output plus two variants."""
    b = AigBuilder(num_inputs=width, num_latches=width, name=name)
    _miter_block(b, 0, width, copies=2, variants=3, rng=rng)
    return b.build()


BANK_WIDTHS = (6, 7, 8, 9)


def bank(rng: random.Random, name: str, blocks: int = len(BANK_WIDTHS)):
    """Independent miter blocks, two properties each.

    Cones of different blocks are disjoint, so with four blocks each
    property's cone holds about a quarter of the netlist.  The seed picks
    the block widths (distinct, from BANK_WIDTHS) and their order.
    """
    widths = rng.sample(BANK_WIDTHS, blocks)
    total = sum(widths)
    b = AigBuilder(num_inputs=total, num_latches=total, name=name)
    off = 0
    for w in widths:
        _miter_block(b, off, w, copies=1, variants=2, rng=rng)
        off += w
    return b.build()


def _prog_seed(rng: random.Random) -> int:
    """The program's own --seed (solver tie-breaks, k-means start) is drawn
    per operation, so its effect averages out within a run."""
    return rng.randrange(1, 1 << 16)


def _budget_args(budget: int, frames: int, prog_seed: int) -> list:
    return ["--budget-conflicts", str(budget), "--max-frames", str(frames),
            "--mode", "init", "--seed", str(prog_seed)]


class OfflineMiter(Workload):
    """One offline build per operation over four single-block miters.
    Every cone is the whole netlist and SAT search dominates."""

    WIDTHS = (10, 11, 12, 13)
    BUDGET, FRAMES = 1500, 8

    def setup(self, rng, work, n_ops):
        ops = []
        for k in range(n_ops):
            paths, designs = [], {}
            for w in self.WIDTHS:
                name = f"m{k}w{w}"
                n = miter(rng, w, name)
                paths.append(_write(os.path.join(work, name + ".aag"), n))
                designs[name] = n
            out = os.path.join(work, f"db{k}")
            argv = (["offline", *paths, "--out-dir", out]
                    + _budget_args(self.BUDGET, self.FRAMES, _prog_seed(rng)))
            ops.append(Op(argv, out, designs, True, self.FRAMES))
        return ops


class OfflineMany(Workload):
    """One offline build per operation over twelve small random netlists.
    SAT is cheap, so PCA, embedding, clustering, gain and DB writes
    dominate; solver changes should not move it."""

    DESIGNS = 12
    BUDGET, FRAMES, PATTERNS = 60, 6, 1024

    def setup(self, rng, work, n_ops):
        ops = []
        for k in range(n_ops):
            paths, designs = [], {}
            for d in range(self.DESIGNS):
                name = f"r{k}d{d}"
                n = circuits.random_netlist(rng, num_bads=rng.randint(4, 10),
                                            name=name)
                paths.append(_write(os.path.join(work, name + ".aag"), n))
                designs[name] = n
            out = os.path.join(work, f"db{k}")
            argv = (["offline", *paths, "--out-dir", out,
                     "--patterns", str(self.PATTERNS)]
                    + _budget_args(self.BUDGET, self.FRAMES, _prog_seed(rng)))
            ops.append(Op(argv, out, designs, False, self.FRAMES))
        return ops


class VerifyBank(Workload):
    """One `verify --baseline` campaign per operation on an unseen bank,
    against a database built in setup: online matching and association,
    clusters of 2-4 small-cone members, repeated baseline runs."""

    # the database holds three-block banks, so the association leaves two
    # properties of every four-block unseen bank unmapped: they run
    # standalone, and --baseline runs them again
    DB_BANKS, DB_BLOCKS, DB_MAX_CLUSTERS = 2, 3, 6
    BUDGET, FRAMES, PATTERNS = 300, 8, 1024

    def setup(self, rng, work, n_ops):
        """Builds the database the campaigns read, then writes the unseen
        banks.

        The database corpus and its build do not depend on the seed.  Every
        campaign runs on the clusters that one database chose, so a seeded
        database would swing all campaigns of a run together; fixed, it
        plays the part of a team's existing design base, and the seed
        draws the new designs checked against it.
        """
        db_rng = random.Random(0)
        corpus = [_write(os.path.join(work, f"known{i}.aag"),
                         bank(db_rng, f"known{i}", self.DB_BLOCKS))
                  for i in range(self.DB_BANKS)]
        db = os.path.join(work, "db")
        rc = cli.main(["offline", *corpus, "--out-dir", db,
                       "--patterns", str(self.PATTERNS),
                       "--max-clusters", str(self.DB_MAX_CLUSTERS)]
                      + _budget_args(self.BUDGET, self.FRAMES, 1))
        if rc != 0:
            raise SetupFailed(f"offline database build exited {rc}")
        ops = []
        for k in range(n_ops):
            name = f"unseen{k}"
            n = bank(rng, name)
            path = _write(os.path.join(work, name + ".aag"), n)
            out = os.path.join(work, f"run{k}")
            argv = (["verify", path, "--db-dir", db, "--out-dir", out,
                     "--baseline"]
                    + _budget_args(self.BUDGET, self.FRAMES, _prog_seed(rng)))
            ops.append(Op(argv, out, {name: n}, True, self.FRAMES))
        return ops


WORKLOADS = {
    w.name: w for w in (
        OfflineMiter("offline-miter", 7.0),
        OfflineMany("offline-many", 0.8),
        VerifyBank("verify-bank", 1.4),
    )
}
