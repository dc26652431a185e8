"""Incremental bounded model checking over one shared solver session.

BMC unrolls from reset (Biere et al., TACAS 1999); a latch with no reset
is free at frame 0.  A run owns a single SolverSession.  Frames are
encoded into CNF one at a time, each limited to the union cone of
influence of the run's properties: an input, latch or gate that no
property of the run can see gets no solver variable and reads as false
in counterexamples, or as its reset for a frame-0 latch.  The C kernel
unfolds and encodes each frame in one call (`netlist.UnfoldBuilder`),
in the solver's own numbering, where variable 1 is the constant false
that each run pins with the clause ``[-1]``.
Constants are folded while a frame unfolds: a gate with a constant
operand, or with equal or complementary operands, takes the literal of a
constant or of an operand and gets neither a variable nor clauses.  Each
other XOR top of `Netlist.gate_table` becomes 4 clauses over its two
inputs, and its two inner AND gates get neither clauses nor solver
variables; every other AND gate gets the 3 Tseitin clauses.  A frame's
variables are created first, in the builder's order, and the clause
records the kernel wrote then go to the solver in one `add_clauses`
batch.  At every frame the bad literal of each still-unresolved property
is assumed and solved, in ascending property order; a bad folded to
constant false is refuted without a solver call.  Each counterexample
is replayed on the netlist (`replay_cex`) before it leaves the run: one
that does not reach its bad, or reaches it at an earlier frame than its
last, which a sound run has refuted, is an unsound encoding or search,
and raises AssertionError.
A run solves each distinct bad literal once, as the first property that
has it; the properties that share it take that verdict.  Learned clauses
persist across properties and frames, which is what makes clustered runs
cheaper than the sum of standalone runs on similar properties.

Every property ends SAT, with a counterexample at the first frame whose
bad is satisfiable, or UNDET at the deepest frame it was refuted at before
the budget or the frame bound ran out.  A refuted frame proves nothing
about deeper ones without a completeness threshold, so no verdict is a
proof.

Budgets come in two flavours: wall-clock seconds and conflict counts
(deterministic, used by all reproducibility tests).  In conflict mode
every time-like field is measured in *cost units*, where one solver call
costs 1 + its conflicts, and a bad refuted by folding costs 1.  Under a
wall-clock budget a run is charged the seconds since it began, unrolling
included: every solver call gets the run's deadline, and the run stops
at the first bad it checks after the deadline has passed.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

from .netlist import Netlist, UnfoldBuilder, cone_vars
from . import satcore

SAT = "SAT"
UNDET = "UNDET"


class BmcConfigError(ValueError):
    pass


@dataclass(frozen=True)
class BmcConfig:
    """Per-property verification budget and engine settings."""

    time_budget: float | None = None     # seconds per property
    conflict_budget: int | None = None   # cost units per property
    max_frames: int | None = None        # highest frame index checked
    seed: int = 0

    def __post_init__(self):
        if self.time_budget is None and self.conflict_budget is None and self.max_frames is None:
            raise BmcConfigError("need a time budget, conflict budget, or frame bound")
        if self.time_budget is not None and self.conflict_budget is not None:
            raise BmcConfigError("time_budget and conflict_budget are "
                                 "exclusive: set one")
        # NaN and inf never run out: with no frame bound, a run might not end
        if (self.time_budget is not None
                and not 0 < self.time_budget < math.inf):
            raise BmcConfigError("time_budget must be positive and finite")
        if self.conflict_budget is not None and self.conflict_budget <= 0:
            raise BmcConfigError("conflict_budget must be positive")
        if self.max_frames is not None and self.max_frames < 0:
            raise BmcConfigError("max_frames must not be negative")
        # random.Random seeds with |seed|, so -s would name the run of s
        if self.seed < 0:
            raise BmcConfigError("seed must not be negative")

    @property
    def deterministic(self) -> bool:
        return self.time_budget is None

    @property
    def budget(self):
        """Per-property budget in the run's unit: seconds, or cost units
        when deterministic; None when only frames bound a run."""
        return self.conflict_budget if self.deterministic else self.time_budget


@dataclass
class Cex:
    """Counterexample trace: frame-0 latch values plus per-frame inputs."""

    latch_init: list
    inputs: list  # inputs[f][i] is input i at frame f


@dataclass(slots=True)
class FrameStat:
    frame: int
    conflicts: int
    solve_time: float
    cumulative_time: float


@dataclass
class Verdict:
    status: str
    depth: int        # CEX frame for SAT; deepest refuted frame (-1 if
                      # none) for UNDET
    elapsed: float = 0.0
    cex: Cex | None = None
    per_frame: list = field(default_factory=list)  # the run's, shared
    # the run stopped on its budget or on an UNKNOWN call.  A run that did
    # not stop answered every property or reached the frame bound, so a
    # deterministic rerun under a larger budget would make the same calls
    stopped: bool = False


@dataclass
class ClusterVerdict:
    per_property: dict  # property index -> Verdict
    per_frame: list     # shared FrameStats of the whole session
    total_elapsed: float


def _cex(builder: UnfoldBuilder, model, frames: int) -> Cex:
    """The trace of the first `frames` frames that a SAT model gives."""
    def val(lit):
        return model[abs(lit)] != (lit < 0)

    ni = builder.netlist.num_inputs
    lits = builder.frame_inputs
    latch_init = [val(lit) for lit in builder.frame0_latches]
    inputs = [[val(lit) for lit in lits[f * ni:(f + 1) * ni]]
              for f in range(frames)]
    return Cex(latch_init, inputs)


# the answer for a bad folded to constant false: refuted without a call
_FOLDED_FALSE = satcore.SolveResult(satcore.UNSAT, None, 0, 0)


def _run(n: Netlist, props, cfg: BmcConfig, budget) -> ClusterVerdict:
    """BMC of `props` in one session that spends at most `budget` in all
    (None: bounded by frames only).  A deterministic run is charged 1 +
    its conflicts per solver call and 1 per folded bad; any other run is
    charged the wall seconds since it began, unrolling included.  Only
    the first property with each bad literal is solved; the others take
    its verdict."""
    start = time.perf_counter()
    props = sorted(set(props))
    if not props:
        raise ValueError("cluster must be non-empty")
    cone = cone_vars(n, props)  # raises ValueError on an unknown property
    owner = single_run_owners(n, props)
    owners = list(dict.fromkeys(owner.values()))
    solver = satcore.new_solver(seed=cfg.seed)
    solver.add_clause([-1])   # solver variable 1 is the constant false
    builder = UnfoldBuilder(n, cone=cone)
    timed = not cfg.deterministic
    deadline = start + budget if timed and budget is not None else None

    verdicts: dict = {}
    refuted_to = {p: -1 for p in owners}      # deepest refuted frame
    frame_stats: list = []
    spent = 0.0
    stopped = budget is not None and budget <= 0
    frame = 0
    while not stopped and len(verdicts) < len(owners) and (
            cfg.max_frames is None or frame <= cfg.max_frames):
        builder.add_frame()
        # every variable the builder numbered: inputs (and frame-0 latches)
        # may feed nothing, and counterexamples still need their values
        solver.add_clauses(builder.records, builder.num_vars)
        bads = builder.bads
        frame_conflicts = 0
        frame_start = spent
        for p in owners:
            if p in verdicts:
                continue
            if bads[p] == 1:
                res = _FOLDED_FALSE
            else:
                limit = None if timed or budget is None else max(
                    0, int(budget - spent) - 1)
                res = solver.solve([bads[p]],
                                   conflict_budget=limit, deadline=deadline)
            if timed:
                spent = time.perf_counter() - start
            else:
                spent += 1 + res.conflicts_this_call
                # a call may use a cost-unit budget up, never more
                assert budget is None or spent <= budget, (
                    f"spent {spent} of {budget} cost units")
            frame_conflicts += res.conflicts_this_call
            if res.status == satcore.SAT:
                cex = _cex(builder, res.model, frame + 1)
                if replay_cex(n, p, cex) != CONFIRMED:
                    raise AssertionError(
                        f"design {n.name!r}: the counterexample of property "
                        f"{p} at depth {frame} does not replay")
                verdicts[p] = Verdict(SAT, frame, spent, cex)
            elif res.status != satcore.UNKNOWN:   # the frame is refuted
                refuted_to[p] = frame
            stopped = res.status == satcore.UNKNOWN or (
                budget is not None and spent >= budget)
            if stopped:
                break
        frame_stats.append(
            FrameStat(frame, frame_conflicts, spent - frame_start, spent))
        frame += 1

    for p in owners:
        if p not in verdicts:
            verdicts[p] = Verdict(UNDET, refuted_to[p], spent)
        verdicts[p].per_frame = frame_stats
        verdicts[p].stopped = stopped
    # a copy shares its owner's verdict and is listed after it
    per_property = {q: verdicts[p] for p in verdicts
                    for q in props if owner[q] == p}
    return ClusterVerdict(per_property, frame_stats, spent)


def check_single(n: Netlist, p: int, cfg: BmcConfig) -> Verdict:
    """Standalone BMC of one property under the per-property budget."""
    return _run(n, [p], cfg, cfg.budget).per_property[p]


def single_run_owners(n: Netlist, props) -> dict:
    """Each of `props` mapped to the first of `props` with its bad literal.

    A property's search depends on its bad literal, not its index, so
    only these owners need to be solved, in standalone runs or inside one
    run; the others take their owner's verdict.
    """
    first: dict = {}
    return {p: first.setdefault(n.properties[p], p) for p in props}


def check_cluster(n: Netlist, cluster, cfg: BmcConfig) -> ClusterVerdict:
    """Shared-session BMC of a property cluster.

    The run's budget is the per-property budget times the cluster size.
    Members that share a bad literal are solved once and each counts
    toward that budget, so k copies of one literal search as one
    property under k times its budget.
    """
    cluster = set(cluster)
    budget = None if cfg.budget is None else cfg.budget * len(cluster)
    return _run(n, cluster, cfg, budget)


def run_with_budget(n: Netlist, props, cfg: BmcConfig, total_budget) -> ClusterVerdict:
    """Cluster run that spends at most `total_budget` in all (online
    phase), in `cfg`'s unit: cost units, or seconds under a time budget;
    `cfg`'s per-property budget is not read.  None bounds the run by
    frames alone."""
    return _run(n, props, cfg, total_budget)


CONFIRMED = "confirmed"
REFUTED = "refuted"


def replay_cex(n: Netlist, p: int, cex: Cex) -> str:
    """Simulate a counterexample; confirmed iff it starts at reset and bad
    p holds at its last frame and at no earlier one.  A run solves a
    frame only once it has refuted every earlier one, so a trace whose bad
    holds sooner exposes an unsound refutation."""
    if not 0 <= p < n.num_properties:
        raise ValueError(f"property {p} of {n.num_properties}")
    if len(cex.inputs) < 1:
        raise ValueError("counterexample needs at least one frame")
    if any(latch.reset is not None and value != bool(latch.reset)
           for latch, value in zip(n.latches, cex.latch_init)):
        return REFUTED
    state = list(cex.latch_init)
    bads = []
    for frame_inputs in cex.inputs:
        _, state, bad_vals = n.eval_frame(state, frame_inputs)
        bads.append(bad_vals[p])
    return CONFIRMED if bads[-1] and not any(bads[:-1]) else REFUTED


def write_frame_csvs(cluster_runs, out_dir: str) -> str:
    """Writes a campaign's frame table, `cluster_frames.csv`, to `out_dir`
    and returns its path: one row per frame of each (members, per_frame)
    cluster run, in the order given, its members space-separated."""
    from .store import write_text  # store imports this module
    path = os.path.join(out_dir, "cluster_frames.csv")
    write_text(path, "cluster,frame,conflicts,solve_time,cumulative_time\n"
               + "".join(f"{' '.join(map(str, members))},{s.frame},"
                         f"{s.conflicts!r},{s.solve_time!r},"
                         f"{s.cumulative_time!r}\n"
                         for members, per_frame in cluster_runs
                         for s in per_frame))
    return path
