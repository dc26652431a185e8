"""And-Inverter Graph circuits: parsing, cone-of-influence extraction, unfolding.

Literals follow the AIGER convention: even literals are variables, odd
literals are negations of the preceding even literal, 0 is constant false
and 1 is constant true.  Only the ASCII ``aag`` format is supported.

Each rule of the format is checked in one place.  `Netlist` holds the
rules on the literals it stores, so they hold for every netlist, parsed
or built: AND outputs in canonical position, no negated AND output, each
AND operand defined before its gate, every next-state, output and bad
literal within the variable count, and a reset of 0, 1 or none.  Input
and latch literals are implicit in a netlist (latch i is variable
``I + i + 1``), so `parse_aiger` checks their positions, along with what
else a netlist cannot see: the header, its counts and
``maxvar == I + L + A``, unsupported sections, truncation, the field
count of each line, ASCII numbers and the symbol-line syntax.  It reads
a reset equal to the latch's own literal as none (AIGER 1.9).  A symbol
table is checked, then dropped, and a comment section ends it.  AIGER's
number rule is `parse_nat`, which `store` reads its integer fields by
too.

A property's cone of influence is one set of variables (`Netlist.cone`).
Canonical numbering tells its inputs, latches and ANDs apart by range,
so the search for a cone counts them, which `extract_coi` reads, and
`restrict_to_coi` renumbers the cone in ascending order without keeping
them in separate sets.

`UnfoldBuilder` unrolls a cone one frame at a time in the C kernel that
`satcore` builds and loads (`_cdcl.c`): one call per frame folds its
constants and writes its literals and CNF in solver numbering.  It
reads each netlist as one table of ints (`Netlist.gate_table`), built
once per netlist.  `tests/ref_unfold.py` holds the same unfolder in
Python, the reference the tests hold the kernel to.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .satcore import _lib


class DataError(Exception):
    """Input a command cannot use: a malformed netlist or database, or a
    file that cannot be read or written.  The CLI exits 3 on it."""


def lit_var(lit: int) -> int:
    return lit >> 1


@dataclass(frozen=True)
class Latch:
    """A latch; latch i of a netlist has the literal ``2 * (I + i + 1)``."""

    next: int
    reset: int | None  # 0, 1 or None for "free at frame 0"


@dataclass(frozen=True)
class Netlist:
    """Immutable AIG with latches and bad-state property outputs."""

    name: str
    num_inputs: int
    latches: tuple[Latch, ...]
    ands: tuple[tuple[int, int, int], ...]  # (lhs, rhs0, rhs1)
    outputs: tuple[int, ...] = ()
    bads: tuple[int, ...] = ()

    @property
    def num_latches(self) -> int:
        return len(self.latches)

    @property
    def num_ands(self) -> int:
        return len(self.ands)

    @property
    def inputs(self) -> tuple[int, ...]:
        return tuple(2 * (i + 1) for i in range(self.num_inputs))

    @property
    def max_var(self) -> int:
        return self.num_inputs + self.num_latches + self.num_ands

    @property
    def properties(self) -> tuple[int, ...]:
        """Bad literals checked by BMC.

        ``b`` lines when present; plain outputs otherwise (pre-1.9 files
        commonly encode safety properties as outputs).
        """
        return self.bads if self.bads else self.outputs

    @property
    def num_properties(self) -> int:
        return len(self.properties)

    def __post_init__(self):
        # AIGER's rules on the stored literals, checked here only, so they
        # hold for every netlist, parsed or built.  Canonical variable
        # layout: inputs, then latches, then ands.
        for latch in self.latches:
            if latch.reset not in (0, 1, None):
                raise DataError(f"bad reset value {latch.reset!r}")
        defined = self.num_inputs + self.num_latches
        for lhs, rhs0, rhs1 in self.ands:
            defined += 1   # the variable this AND must define
            if lhs & 1:
                raise DataError(f"negated AND output {lhs}")
            if lhs != 2 * defined:
                raise DataError(f"AND output {lhs} out of canonical position")
            for rhs in (rhs0, rhs1):
                if rhs < 0:
                    raise DataError(f"AND {lhs} has negative literal {rhs}")
                if rhs >> 1 >= defined:
                    raise DataError(f"AND {lhs} references undefined literal {rhs}")
        top = 2 * defined + 1   # the highest literal, defined = max_var
        for lit in [latch.next for latch in self.latches] + [
                *self.outputs, *self.bads]:
            if not 0 <= lit <= top:
                raise DataError(f"literal {lit} exceeds variable count")
        # caches, not fields, so equality and hashing ignore them
        # bad variable -> (cone, counts)
        object.__setattr__(self, "_cones", {})
        object.__setattr__(self, "_table", None)

    # -- structural queries -------------------------------------------------

    def latch_of_var(self, var: int) -> Latch:
        return self.latches[var - self.num_inputs - 1]

    def and_of_var(self, var: int) -> tuple[int, int, int]:
        return self.ands[var - self.num_inputs - self.num_latches - 1]

    def cone(self, p: int) -> frozenset:
        """The input, latch and AND variables in the COI of property p, as
        one set; canonical numbering tells the three kinds apart by range.

        Computed once per netlist and bad variable, so properties whose
        bad literals share a variable (a miter's copies) share one set;
        the set is frozen, so every caller can share it.
        """
        return self._coi(p)[0]

    def _coi(self, p: int) -> tuple:
        """`cone(p)` and its input, latch and AND counts, computed once per
        bad variable in time proportional to the cone."""
        if not 0 <= p < self.num_properties:
            raise ValueError(f"property {p} of {self.num_properties}")
        var = self.properties[p] >> 1
        coi = self._cones.get(var)
        if coi is None:
            cone, inputs, latches = _coi_vars(self, p)
            coi = self._cones[var] = frozenset(cone), (
                inputs, latches, len(cone) - inputs - latches)
        return coi

    def gate_table(self) -> array:
        """The netlist as the kernel's unfolder reads it, in one
        ``array('i')``: the input, latch, AND and property counts; per
        latch its next-state literal and reset (-1 for none); per AND, in
        variable order, two operands and a kind; per property its bad
        literal.  Computed once per netlist.

        The kind is 0 for an AND, 1 for an XOR top and 2 for an XOR inner
        gate.  An XOR top is ``AND(!g1, !g2)`` with ``g1 = AND(p, q)`` and
        ``g2 = AND(!p, !q)``, the shape ``AigBuilder.xor_`` builds, so it
        equals ``p XOR q``, and its row holds p and q.  A top counts only
        if g1 and g2 have it as their only reader among every AND, latch
        next-state function and property; nothing else then sees an inner
        gate, and no gate is both a top and an inner gate.
        """
        if self._table is None:
            object.__setattr__(self, "_table", _gate_table(self))
        return self._table

    # -- simulation ---------------------------------------------------------

    def eval_frame(self, latch_vals, input_vals, ones=True):
        """One combinational evaluation.

        ``latch_vals`` and ``input_vals`` are sequences of bools, or of ints
        that pack one pattern per bit; ``ones`` is the all-true value a
        literal's negation is xor-ed with, so int callers pass
        ``(1 << patterns) - 1``.  Returns ``(values, next_latch,
        bad_vals)`` where ``values[var]`` holds every variable's value.
        """
        if len(input_vals) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} inputs, got {len(input_vals)}"
            )
        if len(latch_vals) != self.num_latches:
            raise ValueError(
                f"expected {self.num_latches} latch values, got {len(latch_vals)}"
            )
        values: list = [None] * (self.max_var + 1)
        values[0] = False
        for i, v in enumerate(input_vals):
            values[i + 1] = v
        for i, v in enumerate(latch_vals):
            values[self.num_inputs + 1 + i] = v

        def ev(lit):
            v = values[lit >> 1]
            return v ^ ones if lit & 1 else v

        for lhs, rhs0, rhs1 in self.ands:
            values[lit_var(lhs)] = ev(rhs0) & ev(rhs1)
        next_latch = [ev(l.next) for l in self.latches]
        bad_vals = [ev(b) for b in self.properties]
        return values, next_latch, bad_vals


def parse_aiger(text: str, name: str = "") -> Netlist:
    """Parse an ASCII AIGER document into a Netlist."""
    if text.startswith("aig ") or text.startswith("aig\n"):
        raise DataError("binary 'aig' input; convert to ASCII 'aag'")
    lines = text.splitlines()
    if not lines:
        raise DataError("empty document")
    head = lines[0].split()
    if not head or head[0] != "aag":
        raise DataError(f"expected 'aag' header, got {lines[0]!r}")
    if len(head) < 6 or len(head) > 10:
        raise DataError(f"bad header field count: {lines[0]!r}")
    counts = [_nat(tok, lines[0]) for tok in head[1:]]
    maxvar, ni, nl, no, na = counts[:5]
    nb = counts[5] if len(counts) > 5 else 0
    extra = counts[6:]
    if any(extra):
        raise DataError("constraint/justice/fairness sections not supported")
    if maxvar != ni + nl + na:
        raise DataError(
            f"maximum variable index {maxvar} != I+L+A = {ni + nl + na}"
        )

    pos = 1

    def next_line(section):
        nonlocal pos
        if pos >= len(lines):
            raise DataError(f"truncated document in {section} section")
        line = lines[pos]
        pos += 1
        return line

    for i in range(ni):
        toks = next_line("input").split()
        if len(toks) != 1:
            raise DataError(f"bad input line: {lines[pos - 1]!r}")
        if _nat(toks[0], lines[pos - 1]) != 2 * (i + 1):
            raise DataError(f"input literal {toks[0]} out of canonical position")

    latches = []
    for i in range(nl):
        toks = next_line("latch").split()
        if len(toks) not in (2, 3):
            raise DataError(f"bad latch line: {lines[pos - 1]!r}")
        lit, nxt, *rest = (_nat(t, lines[pos - 1]) for t in toks)
        if lit != 2 * (ni + i + 1):
            raise DataError(f"latch literal {toks[0]} out of canonical position")
        reset: int | None = 0
        if rest:
            # AIGER 1.9: reset equal to the latch literal means "uninitialized"
            reset = None if rest[0] == lit else rest[0]
        latches.append(Latch(nxt, reset))

    outputs = tuple(_read_lit_line(next_line("output")) for _ in range(no))
    bads = tuple(_read_lit_line(next_line("bad")) for _ in range(nb))
    ands = []
    for _ in range(na):
        toks = next_line("and").split()
        if len(toks) != 3:
            raise DataError(f"bad and line: {lines[pos - 1]!r}")
        ands.append(tuple(_nat(t, lines[pos - 1]) for t in toks))

    # the symbol table is checked, then dropped: nothing reads it
    for line in lines[pos:]:
        if line.startswith("c"):
            break  # comment section: ignored
        if not line.strip():
            continue
        if line[0] not in "ilob":
            raise DataError(f"bad symbol line: {line!r}")
        _nat(line[1:].partition(" ")[0], line)

    return Netlist(
        name=name,
        num_inputs=ni,
        latches=tuple(latches),
        ands=tuple(ands),
        outputs=outputs,
        bads=bads,
    )


def parse_nat(tok: str) -> int:
    """A non-negative decimal number in ASCII digits, AIGER's number rule,
    which the databases follow too: `int` alone would take a sign, `_`,
    spaces and non-ASCII digits.  Raises ValueError on anything else."""
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # longer than Python's int conversion limit
            pass
    raise ValueError(f"bad number {tok[:20]!r}")


def _nat(tok: str, line: str) -> int:
    """`parse_nat` of a field of the AIGER line `line`."""
    try:
        return parse_nat(tok)
    except ValueError as e:
        raise DataError(f"{e} in line {line[:80]!r}") from None


def _read_lit_line(line: str) -> int:
    toks = line.split()
    if len(toks) != 1:
        raise DataError(f"bad output/bad line: {line!r}")
    return _nat(toks[0], line)


def serialize_aiger(n: Netlist) -> str:
    """Emit canonical ASCII AIGER: inputs, latches, outputs, bads, ands."""
    out = [
        f"aag {n.max_var} {n.num_inputs} {n.num_latches} "
        f"{len(n.outputs)} {n.num_ands}" + (f" {len(n.bads)}" if n.bads else "")
    ]
    out.extend(str(lit) for lit in n.inputs)
    for i, latch in enumerate(n.latches):
        lit = 2 * (n.num_inputs + i + 1)
        if latch.reset is None:
            out.append(f"{lit} {latch.next} {lit}")
        elif latch.reset == 1:
            out.append(f"{lit} {latch.next} 1")
        else:
            out.append(f"{lit} {latch.next}")
        # reset 0 is the AIGER default and is left implicit
    out.extend(str(lit) for lit in n.outputs)
    out.extend(str(lit) for lit in n.bads)
    out.extend(f"{a} {b} {c}" for a, b, c in n.ands)
    return "\n".join(out) + "\n"


def _coi_vars(n: Netlist, p: int) -> tuple[set, int, int]:
    """Backward-reachable input, latch and AND variables of property p,
    and how many of them are inputs and latches.

    Latch traversal crosses into the next-state cone: BMC unrolling makes
    the transition logic of every reached latch relevant.
    """
    # canonical numbering: inputs are 1..I, latches I+1..I+L, ANDs above
    ni, latches, ands = n.num_inputs, n.latches, n.ands
    first_and = ni + len(latches) + 1
    seen: set = set()
    inputs = latches_seen = 0
    stack = [n.properties[p] >> 1]
    while stack:
        var = stack.pop()
        if var == 0 or var in seen:
            continue
        seen.add(var)
        if var >= first_and:
            _, rhs0, rhs1 = ands[var - first_and]
            stack.append(rhs0 >> 1)
            stack.append(rhs1 >> 1)
        elif var > ni:
            latches_seen += 1
            stack.append(latches[var - ni - 1].next >> 1)
        else:
            inputs += 1
    return seen, inputs, latches_seen


def _gate_table(n: Netlist) -> array:
    ands, first_and = n.ands, n.num_inputs + n.num_latches + 1
    rows = [n.num_inputs, n.num_latches, n.num_ands, n.num_properties]
    readers = [0] * (n.max_var + 1)
    for latch in n.latches:
        rows += (latch.next, -1 if latch.reset is None else latch.reset)
        readers[latch.next >> 1] += 1
    at = len(rows)   # the first AND's row
    for _, rhs0, rhs1 in ands:
        rows += (rhs0, rhs1, 0)
        readers[rhs0 >> 1] += 1
        readers[rhs1 >> 1] += 1
    for lit in n.properties:
        rows.append(lit)
        readers[lit >> 1] += 1
    for i, (_, rhs0, rhs1) in enumerate(ands):
        g1, g2 = rhs0 >> 1, rhs1 >> 1
        if (rhs0 & rhs1 & 1 and g1 != g2 and min(g1, g2) >= first_and
                and readers[g1] == readers[g2] == 1):
            _, p, q = ands[g1 - first_and]
            _, r, s = ands[g2 - first_and]
            if sorted((p ^ 1, q ^ 1)) == sorted((r, s)):
                rows[at + 3 * i:at + 3 * i + 3] = p, q, 1
                rows[at + 3 * (g1 - first_and) + 2] = 2
                rows[at + 3 * (g2 - first_and) + 2] = 2
    return array("i", rows)


def cone_vars(n: Netlist, props) -> frozenset:
    """Union of the cones of `props`."""
    return frozenset().union(*(n.cone(p) for p in props))


def extract_coi(n: Netlist, p: int) -> tuple[int, int, int]:
    """Input, latch and AND counts of the COI of property p."""
    return n._coi(p)[1]


def restrict_to_coi(n: Netlist, p: int) -> Netlist:
    """Standalone netlist containing exactly the COI of property p.

    The result has the property as its single bad output; verdicts on it
    equal verdicts of p on the original netlist.  Canonical numbering
    puts inputs before latches before ANDs, so the cone's variables in
    ascending order keep that layout.
    """
    old = sorted(n.cone(p))
    ni, nl, _ = extract_coi(n, p)
    remap = {0: 0}
    for new, var in enumerate(old):
        remap[var] = new + 1

    def m(lit: int) -> int:
        if lit <= 1:
            return lit
        return 2 * remap[lit_var(lit)] + (lit & 1)

    latches = tuple(
        Latch(m(n.latch_of_var(v).next), n.latch_of_var(v).reset)
        for v in old[ni:ni + nl]
    )
    ands = tuple(
        (m(n.and_of_var(v)[0]), m(n.and_of_var(v)[1]), m(n.and_of_var(v)[2]))
        for v in old[ni + nl:]
    )
    return Netlist(
        name=f"{n.name}#p{p}" if n.name else f"#p{p}",
        num_inputs=ni,
        latches=latches,
        ands=ands,
        bads=(m(n.properties[p]),),
    )


class UnfoldBuilder:
    """Combinational unfolding of a netlist, one frame per `add_frame`;
    a wrapper over the unfolder in the solver's C kernel (`_cdcl.c`).

    Every literal it reports is a solver literal, in the DIMACS numbering
    of `satcore.SolverSession`: solver variable 1 is the constant false,
    which a BMC run pins with the clause ``[-1]``, so literal 1 reads
    false and -1 true, and fresh variables are numbered from 2.
    ``num_vars`` is the highest variable so far, 1 before the first frame.
    Each frame numbers its fresh variables in order: at frame 0 the free
    latches, then the inputs, then the gates.  ``frame_inputs`` holds
    every frame's input literals in one flat ``array('i')``: input i at
    frame f is ``frame_inputs[f * I + i]``.  ``bads[p]`` is the literal of
    property p at the last frame unfolded (earlier frames' bads are not
    kept), ``frame0_latches`` the frame-0 latch literals, and ``records``
    the last frame's clauses as the length-prefixed records of
    `satcore.SolverSession.add_clauses`.  Frame 0 is the initial state: a
    latch with a reset is that constant there, and a latch with none
    (AIGER's reset = its own literal) is free.  So a run from every state
    is a run on a copy whose latches have no reset.

    ``cone`` holds the netlist variables to unfold, as 32-bit ints;
    entries outside ``1..max_var`` are ignored, and ``range(1, n.max_var
    + 1)`` unfolds every variable.  A variable outside it reads false
    instead of getting a fresh variable, and its AND gate or next-state
    function is skipped, so only the bads of properties whose COI lies
    inside ``cone`` are exact.
    A latch outside it still takes its reset at frame 0, so the frame-0
    latch literals always name an initial state.

    Each XOR top of `Netlist.gate_table` unfolds as ``p XOR q`` over the
    operands of ``g1 = AND(p, q)``, with 4 clauses; its two inner gates,
    which only the top reads, get no literal.  Every other AND that gets a
    variable gets the 3 Tseitin clauses.

    Constants are folded as each frame unfolds.  An AND with a constant
    operand, or with equal or complementary operands, gets no variable: its
    literal is the constant or the operand.  So does an XOR whose p or q is
    constant or whose p is q or its negation.  The rest get one fresh
    variable each.
    """

    def __init__(self, n: Netlist, *, cone):
        self.netlist = n
        self.num_vars = 1
        self.frames = 0
        self.frame_inputs = array("i")
        self.frame0_latches = array("i")
        self.bads = array("i")
        self.records = array("i")
        table = n.gate_table().buffer_info()[0]
        # the kernel's state, in a buffer this builder owns
        self._state = array("i", [0]) * _lib.unfold_size(table)
        self._addr = self._state.buffer_info()[0]
        # the most record ints a frame can write, which unfold_init counts
        # from the kept gates' kinds
        bound = array("q", [0])
        cone = array("i", list(cone))
        gates = _lib.unfold_init(self._addr, table, *cone.buffer_info(),
                                 bound.buffer_info()[0])
        # the kernel's output, as unfold_frame lays it out: 2 counts, then
        # bads, inputs, frame-0 latches, gate literals and records
        inputs = 2 + n.num_properties
        latches = inputs + n.num_inputs
        lits = latches + n.num_latches
        records = lits + gates
        self._at = inputs, latches, lits, records
        self._out = array("i", [0]) * (records + bound[0])
        self._out_addr = self._out.buffer_info()[0]

    def add_frame(self):
        """Unfold one more frame.

        Returns one entry per kept AND gate, XOR inner gates included: the
        gate's literal at this frame, or 0 for an inner gate.
        """
        if _lib.unfold_frame(self._addr, self._out_addr):
            raise OverflowError("the unfolding outgrew 32-bit literals")
        out = self._out
        inputs, latches, lits, records = self._at
        self.num_vars = out[0]
        self.bads = out[2:inputs]
        self.frame_inputs += out[inputs:latches]
        if not self.frames:
            self.frame0_latches = out[latches:lits]
        self.records = out[records:records + out[1]]
        self.frames += 1
        return out[lits:records]
