"""And-Inverter Graph circuits: parsing, cone-of-influence extraction, unfolding.

Literals follow the AIGER convention: even literals are variables, odd
literals are negations of the preceding even literal, 0 is constant false
and 1 is constant true.  Only the ASCII ``aag`` format is supported.

Each rule of the format is checked in one place.  `Netlist` holds the
rules on literals and latches, so they hold for every netlist, parsed or
built: latches and AND outputs in canonical position, no negated AND
output, each AND operand defined before its gate, every next-state,
output and bad literal within the variable count, and a reset of 0, 1 or
none.  `parse_aiger` checks what a netlist cannot see: the header, its
counts and ``maxvar == I + L + A``, unsupported sections, truncation, the
field count of each line, ASCII numbers, the input literals' positions
and the symbol-line syntax.  It reads a reset equal to the latch's own
literal as none (AIGER 1.9).  A symbol table is checked, then dropped.

A property's cone of influence is one set of variables (`Netlist.cone`).
Canonical numbering tells its inputs, latches and ANDs apart by range,
so `extract_coi` counts them and `restrict_to_coi` renumbers the cone in
ascending order without keeping them in separate sets.

`UnfoldBuilder` unrolls a cone one frame at a time in the C kernel that
`satcore` builds and loads (`_cdcl.c`): one call per frame folds its
constants and writes its CNF as clause records in solver numbering.  It
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
    lit: int
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
        # AIGER's rules on literals and latches, checked here only, so they
        # hold for every netlist, parsed or built.  Canonical variable
        # layout: inputs, then latches, then ands.
        ni, nl = self.num_inputs, self.num_latches
        for pos, latch in enumerate(self.latches):
            if latch.lit != 2 * (ni + pos + 1):
                raise DataError(f"latch literal {latch.lit} out of canonical position")
            if latch.reset not in (0, 1, None):
                raise DataError(f"bad reset value {latch.reset!r}")
        defined = ni + nl
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
        object.__setattr__(self, "_cones", {})   # property -> cone
        object.__setattr__(self, "_xors", None)
        object.__setattr__(self, "_table", None)

    # -- structural queries -------------------------------------------------

    def latch_of_var(self, var: int) -> Latch:
        return self.latches[var - self.num_inputs - 1]

    def and_of_var(self, var: int) -> tuple[int, int, int]:
        return self.ands[var - self.num_inputs - self.num_latches - 1]

    def cone(self, p: int) -> frozenset:
        """The input, latch and AND variables in the COI of property p, as
        one set; canonical numbering tells the three kinds apart by range.

        Computed once per netlist and property; the set is frozen, so
        every caller can share it.
        """
        cone = self._cones.get(p)
        if cone is None:
            cone = self._cones[p] = frozenset(_coi_vars(self, p))
        return cone

    def xors(self) -> tuple[tuple[int, int, int], ...]:
        """XOR gates as ``(top, g1, g2)`` variables, ascending by top.

        The top is ``AND(!g1, !g2)`` with ``g1 = AND(p, q)`` and
        ``g2 = AND(!p, !q)``, the shape ``AigBuilder.xor_`` builds, so the
        top equals ``p XOR q``.  A top is listed only if g1 and g2 have it
        as their only reader among every AND, latch next-state function
        and property; nothing else then sees an inner gate, and no gate is
        both a top and an inner gate.  Computed once per netlist.
        """
        if self._xors is None:
            object.__setattr__(self, "_xors", _find_xors(self))
        return self._xors

    def gate_table(self) -> array:
        """The netlist as the kernel's unfolder reads it, in one
        ``array('i')``: the input, latch, AND and property counts and the
        size of an unfolder's state in ints, which the kernel computes;
        per latch its next-state literal and reset (-1 for none); per AND,
        in variable order, two operands and a kind, which is 1 for an XOR
        top of `xors` (its operands are then p and q of ``p XOR q``), 2
        for an XOR inner gate and 0 for any other AND; per property its
        bad literal.  Computed once per netlist.
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
        reset: int | None = 0
        if rest:
            # AIGER 1.9: reset equal to the latch literal means "uninitialized"
            reset = None if rest[0] == lit else rest[0]
        latches.append(Latch(lit, nxt, reset))

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


def _nat(tok: str, line: str) -> int:
    """A non-negative decimal field; AIGER numbers are ASCII digits only."""
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # longer than Python's int conversion limit
            pass
    raise DataError(f"bad number {tok[:20]!r} in line {line[:80]!r}")


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
    for latch in n.latches:
        if latch.reset is None:
            out.append(f"{latch.lit} {latch.next} {latch.lit}")
        elif latch.reset == 1:
            out.append(f"{latch.lit} {latch.next} 1")
        else:
            out.append(f"{latch.lit} {latch.next}")
        # reset 0 is the AIGER default and is left implicit
    out.extend(str(lit) for lit in n.outputs)
    out.extend(str(lit) for lit in n.bads)
    out.extend(f"{a} {b} {c}" for a, b, c in n.ands)
    return "\n".join(out) + "\n"


def _coi_vars(n: Netlist, p: int) -> set:
    """Backward-reachable input, latch and AND variables of property p.

    Latch traversal crosses into the next-state cone: BMC unrolling makes
    the transition logic of every reached latch relevant.
    """
    if not 0 <= p < n.num_properties:
        raise ValueError(f"property {p} of {n.num_properties}")
    # canonical numbering: inputs are 1..I, latches I+1..I+L, ANDs above
    ni, latches, ands = n.num_inputs, n.latches, n.ands
    first_and = ni + len(latches) + 1
    seen: set = set()
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
            stack.append(latches[var - ni - 1].next >> 1)
    return seen


def _find_xors(n: Netlist) -> tuple[tuple[int, int, int], ...]:
    readers = [0] * (n.max_var + 1)
    for _, rhs0, rhs1 in n.ands:
        readers[lit_var(rhs0)] += 1
        readers[lit_var(rhs1)] += 1
    for lit in [latch.next for latch in n.latches] + list(n.properties):
        readers[lit_var(lit)] += 1
    first_and = n.num_inputs + n.num_latches + 1
    found = []
    for lhs, rhs0, rhs1 in n.ands:
        g1, g2 = lit_var(rhs0), lit_var(rhs1)
        if not (rhs0 & rhs1 & 1) or min(g1, g2) < first_and or g1 == g2:
            continue
        if readers[g1] != 1 or readers[g2] != 1:
            continue
        _, p, q = n.and_of_var(g1)
        _, r, s = n.and_of_var(g2)
        if sorted((p ^ 1, q ^ 1)) == sorted((r, s)):
            found.append((lit_var(lhs), g1, g2))
    return tuple(found)


def _gate_table(n: Netlist) -> array:
    xors = n.xors()
    tops = {top: n.and_of_var(g1) for top, g1, _ in xors}
    inner = {g for _, g1, g2 in xors for g in (g1, g2)}
    rows = [n.num_inputs, n.num_latches, n.num_ands, n.num_properties, 0]
    for latch in n.latches:
        rows += (latch.next, -1 if latch.reset is None else latch.reset)
    for lhs, rhs0, rhs1 in n.ands:
        var = lhs >> 1
        if var in tops:
            _, p, q = tops[var]
            rows += (p, q, 1)
        else:
            rows += (rhs0, rhs1, 2 if var in inner else 0)
    rows += n.properties
    table = array("i", rows)
    table[4] = _lib.unfold_size(table.buffer_info()[0])
    return table


def cone_vars(n: Netlist, props) -> frozenset:
    """Union of the cones of `props`."""
    return frozenset().union(*(n.cone(p) for p in props))


def extract_coi(n: Netlist, p: int) -> tuple[int, int, int]:
    """Input, latch and AND counts of the COI of property p."""
    cone = n.cone(p)
    # canonical numbering: inputs are 1..I, latches I+1..I+L, ANDs above
    ni = n.num_inputs
    inputs = len(cone.intersection(range(1, ni + 1)))
    latches = len(cone.intersection(range(ni + 1, ni + n.num_latches + 1)))
    return inputs, latches, len(cone) - inputs - latches


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
        Latch(2 * (ni + i + 1), m(n.latch_of_var(v).next), n.latch_of_var(v).reset)
        for i, v in enumerate(old[ni:ni + nl])
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

    Fresh variables are numbered from 1; literals use the same even/odd
    convention as Netlist.  Each frame numbers its fresh variables in
    order: at frame 0 the free latches, then the inputs, then the gates.
    ``frame_inputs`` holds every frame's input literals in one flat
    ``array('i')``: input i at frame f is ``frame_inputs[f * I + i]``.
    ``bads[p]`` is the literal of property p at the last frame unfolded
    (earlier frames' bads are not kept), ``frame0_latches`` the frame-0
    latch literals, and ``records`` the last frame's clauses as the
    length-prefixed DIMACS records of `satcore.SolverSession.add_clauses`,
    in solver numbering: combinational variable k is solver variable
    k + 1, so solver variable 1 stands for the constant.  Frame 0 is the
    initial state: a latch with a reset is that constant there, and a
    latch with none (AIGER's reset = its own literal) is free.  So a run
    from every state is a run on a copy whose latches have no reset.

    ``cone`` is the set of netlist variables to unfold (None: every one).
    A variable outside it gets literal 0 (constant false) instead of a
    fresh variable, and its AND gate or next-state function is skipped, so
    only the bads of properties whose COI lies inside ``cone`` are exact.
    A latch outside it still takes its reset at frame 0, so the frame-0
    latch literals always name an initial state.

    Each XOR top of `Netlist.xors` unfolds as ``p XOR q`` over the
    operands of ``g1 = AND(p, q)``, with 4 clauses; its two inner gates,
    which only the top reads, get no literal.  Every other AND that gets a
    variable gets the 3 Tseitin clauses.

    Constants are folded as each frame unfolds.  An AND with a constant
    operand, or with equal or complementary operands, gets no variable: its
    literal is the constant or the operand.  So does an XOR whose p or q is
    constant or whose p is q or its negation.  The rest get one fresh
    variable each.
    """

    def __init__(self, n: Netlist, *, cone=None):
        self.netlist = n
        self.num_vars = 0
        self.frames = 0
        self.frame_inputs = array("i")
        self.frame0_latches = array("i")
        self.bads = array("i")
        self.records = array("i")
        table = n.gate_table()
        # the kernel's state, in a buffer this builder owns
        self._state = array("i", [0]) * table[4]
        self._addr = self._state.buffer_info()[0]
        if cone is None:
            gates = _lib.unfold_init(self._addr, table.buffer_info()[0],
                                     None, -1)
        else:
            cone = array("i", list(cone))
            gates = _lib.unfold_init(self._addr, table.buffer_info()[0],
                                     *cone.buffer_info())
        # the kernel's output, as unfold_frame lays it out: 2 counts, then
        # bads, inputs, frame-0 latches, gate literals and records
        inputs = 2 + n.num_properties
        latches = inputs + n.num_inputs
        lits = latches + n.num_latches
        records = lits + gates
        self._at = inputs, latches, lits, records
        self._out = array("i", [0]) * (records + 16 * gates)
        self._out_addr = self._out.buffer_info()[0]

    def add_frame(self):
        """Unfold one more frame.

        Returns one entry per kept AND gate, XOR inner gates included: the
        gate's literal at this frame, or -1 for an inner gate.
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
