"""And-Inverter Graph circuits: parsing, cone-of-influence extraction, unfolding.

Literals follow the AIGER convention: even literals are variables, odd
literals are negations of the preceding even literal, 0 is constant false
and 1 is constant true.  Only the ASCII ``aag`` format is supported.
"""

from __future__ import annotations

from dataclasses import dataclass


class AigerError(Exception):
    """Base class for netlist construction failures."""


class MalformedHeader(AigerError):
    pass


class BinaryFormatUnsupported(AigerError):
    """Raised for binary ``aig`` input; only ASCII ``aag`` is accepted."""


class LiteralOutOfRange(AigerError):
    pass


class NonTopologicalDefinition(AigerError):
    pass


class PropertyIndexOutOfRange(AigerError):
    pass


class InputArityMismatch(AigerError):
    pass


def lit_var(lit: int) -> int:
    return lit >> 1


def lit_sign(lit: int) -> bool:
    return bool(lit & 1)


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
    symbols: tuple[tuple[str, int, str], ...] = ()

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
        # Canonical AIGER variable layout: inputs, then latches, then ands.
        ni, nl = self.num_inputs, self.num_latches
        for pos, latch in enumerate(self.latches):
            if latch.lit != 2 * (ni + pos + 1):
                raise NonTopologicalDefinition(
                    f"latch literal {latch.lit} out of canonical position"
                )
            if latch.reset not in (0, 1, None):
                raise AigerError(f"bad reset value {latch.reset!r}")
        defined = ni + nl
        for lhs, rhs0, rhs1 in self.ands:
            if lit_sign(lhs):
                raise NonTopologicalDefinition(f"negated AND output {lhs}")
            if lit_var(lhs) != defined + 1:
                raise NonTopologicalDefinition(
                    f"AND output {lhs} out of canonical position"
                )
            for rhs in (rhs0, rhs1):
                if rhs < 0:
                    raise LiteralOutOfRange(f"AND {lhs} has negative literal {rhs}")
                if rhs > 1 and lit_var(rhs) > defined:
                    raise NonTopologicalDefinition(
                        f"AND {lhs} references undefined literal {rhs}"
                    )
            defined += 1
        for latch in self.latches:
            self._check_lit(latch.next)
        for lit in self.outputs + self.bads:
            self._check_lit(lit)
        # property -> cone; not a field, so equality and hashing ignore it
        object.__setattr__(self, "_cones", {})

    def _check_lit(self, lit: int):
        if lit < 0 or lit_var(lit) > self.max_var:
            raise LiteralOutOfRange(f"literal {lit} exceeds variable count")

    # -- structural queries -------------------------------------------------

    def is_input_var(self, var: int) -> bool:
        return 1 <= var <= self.num_inputs

    def is_latch_var(self, var: int) -> bool:
        return self.num_inputs < var <= self.num_inputs + self.num_latches

    def latch_of_var(self, var: int) -> Latch:
        return self.latches[var - self.num_inputs - 1]

    def and_of_var(self, var: int) -> tuple[int, int, int]:
        return self.ands[var - self.num_inputs - self.num_latches - 1]

    def cone(self, p: int) -> tuple[frozenset, frozenset, frozenset]:
        """Input, latch and AND variables in the COI of property p.

        Computed once per netlist and property; the sets are frozen, so
        every caller can share them.
        """
        cone = self._cones.get(p)
        if cone is None:
            cone = self._cones[p] = tuple(map(frozenset, _coi_vars(self, p)))
        return cone

    # -- simulation ---------------------------------------------------------

    def eval_frame(self, latch_vals, input_vals):
        """One combinational evaluation.

        ``latch_vals`` and ``input_vals`` are sequences of bools (or numpy
        arrays for vectorized simulation).  Returns ``(values, next_latch,
        bad_vals)`` where ``values[var]`` holds every variable's value.
        """
        if len(input_vals) != self.num_inputs:
            raise InputArityMismatch(
                f"expected {self.num_inputs} inputs, got {len(input_vals)}"
            )
        if len(latch_vals) != self.num_latches:
            raise InputArityMismatch(
                f"expected {self.num_latches} latch values, got {len(latch_vals)}"
            )
        values: list = [None] * (self.max_var + 1)
        for i, v in enumerate(input_vals):
            values[i + 1] = v
        for i, v in enumerate(latch_vals):
            values[self.num_inputs + 1 + i] = v

        def ev(lit):
            if lit == 0:
                return False
            if lit == 1:
                return True
            v = values[lit_var(lit)]
            return ~v if (lit & 1) and not isinstance(v, bool) else (not v if lit & 1 else v)

        for lhs, rhs0, rhs1 in self.ands:
            values[lit_var(lhs)] = ev(rhs0) & ev(rhs1)
        next_latch = [ev(l.next) for l in self.latches]
        bad_vals = [ev(b) for b in self.properties]
        return values, next_latch, bad_vals


@dataclass(frozen=True)
class Property:
    """COI size summary for one bad output."""

    index: int
    bad_literal: int
    coi_inputs: int
    coi_latches: int
    coi_ands: int


def parse_aiger(text: str, name: str = "") -> Netlist:
    """Parse an ASCII AIGER document into a Netlist."""
    if text.startswith("aig ") or text.startswith("aig\n"):
        raise BinaryFormatUnsupported("binary 'aig' input; convert to ASCII 'aag'")
    lines = text.splitlines()
    if not lines:
        raise MalformedHeader("empty document")
    head = lines[0].split()
    if not head or head[0] != "aag":
        raise MalformedHeader(f"expected 'aag' header, got {lines[0]!r}")
    if len(head) < 6 or len(head) > 10:
        raise MalformedHeader(f"bad header field count: {lines[0]!r}")
    counts = [_nat(tok, lines[0]) for tok in head[1:]]
    maxvar, ni, nl, no, na = counts[:5]
    nb = counts[5] if len(counts) > 5 else 0
    extra = counts[6:]
    if any(extra):
        raise MalformedHeader("constraint/justice/fairness sections not supported")
    if maxvar != ni + nl + na:
        raise MalformedHeader(
            f"maximum variable index {maxvar} != I+L+A = {ni + nl + na}"
        )

    pos = 1

    def next_line(section):
        nonlocal pos
        if pos >= len(lines):
            raise MalformedHeader(f"truncated document in {section} section")
        line = lines[pos]
        pos += 1
        return line

    for i in range(ni):
        toks = next_line("input").split()
        if len(toks) != 1:
            raise MalformedHeader(f"bad input line: {lines[pos - 1]!r}")
        if _nat(toks[0], lines[pos - 1]) != 2 * (i + 1):
            raise NonTopologicalDefinition(
                f"input literal {toks[0]} out of canonical position"
            )

    latches = []
    for i in range(nl):
        toks = next_line("latch").split()
        if len(toks) not in (2, 3):
            raise MalformedHeader(f"bad latch line: {lines[pos - 1]!r}")
        lit, nxt, *rest = (_nat(t, lines[pos - 1]) for t in toks)
        reset: int | None = 0
        if rest:
            # AIGER 1.9: reset equal to the latch literal means "uninitialized"
            reset = None if rest[0] == lit else rest[0]
            if reset not in (0, 1, None):
                raise MalformedHeader(f"bad reset value in: {lines[pos - 1]!r}")
        latches.append(Latch(lit, nxt, reset))

    outputs = tuple(_read_lit_line(next_line("output"), maxvar) for _ in range(no))
    bads = tuple(_read_lit_line(next_line("bad"), maxvar) for _ in range(nb))
    ands = []
    for _ in range(na):
        toks = next_line("and").split()
        if len(toks) != 3:
            raise MalformedHeader(f"bad and line: {lines[pos - 1]!r}")
        lhs, rhs0, rhs1 = (_nat(t, lines[pos - 1]) for t in toks)
        for lit in (lhs, rhs0, rhs1):
            if lit_var(lit) > maxvar:
                raise LiteralOutOfRange(f"literal {lit} exceeds {maxvar}")
        ands.append((lhs, rhs0, rhs1))

    symbols = []
    while pos < len(lines):
        line = lines[pos]
        pos += 1
        if line.startswith("c"):
            break  # comment section: ignored
        if not line.strip():
            continue
        kind = line[0]
        if kind not in "ilob":
            raise MalformedHeader(f"bad symbol line: {line!r}")
        rest = line[1:]
        idx_str, _, sym = rest.partition(" ")
        symbols.append((kind, _nat(idx_str, line), sym))

    return Netlist(
        name=name,
        num_inputs=ni,
        latches=tuple(latches),
        ands=tuple(ands),
        outputs=outputs,
        bads=bads,
        symbols=tuple(symbols),
    )


def _nat(tok: str, line: str) -> int:
    """A non-negative decimal field; AIGER numbers are ASCII digits only."""
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # longer than Python's int conversion limit
            pass
    raise MalformedHeader(f"bad number {tok[:20]!r} in line {line[:80]!r}")


def _read_lit_line(line: str, maxvar: int) -> int:
    toks = line.split()
    if len(toks) != 1:
        raise MalformedHeader(f"bad output/bad line: {line!r}")
    lit = _nat(toks[0], line)
    if lit_var(lit) > maxvar:
        raise LiteralOutOfRange(f"literal {lit} exceeds {maxvar}")
    return lit


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
    out.extend(f"{kind}{idx} {sym}" for kind, idx, sym in n.symbols)
    return "\n".join(out) + "\n"


def _coi_vars(n: Netlist, p: int) -> tuple[set, set, set]:
    """Backward-reachable input/latch/AND variable sets for property p.

    Latch traversal crosses into the next-state cone: BMC unrolling makes
    the transition logic of every reached latch relevant.
    """
    if not 0 <= p < n.num_properties:
        raise PropertyIndexOutOfRange(f"property {p} of {n.num_properties}")
    inputs: set = set()
    latch_vars: set = set()
    and_vars: set = set()
    seen: set = set()
    stack = [lit_var(n.properties[p])]
    while stack:
        var = stack.pop()
        if var == 0 or var in seen:
            continue
        seen.add(var)
        if n.is_input_var(var):
            inputs.add(var)
        elif n.is_latch_var(var):
            latch_vars.add(var)
            stack.append(lit_var(n.latch_of_var(var).next))
        else:
            and_vars.add(var)
            _, rhs0, rhs1 = n.and_of_var(var)
            stack.append(lit_var(rhs0))
            stack.append(lit_var(rhs1))
    return inputs, latch_vars, and_vars


def cone_vars(n: Netlist, props) -> frozenset:
    """Union of the input, latch and AND variables in the COI of `props`."""
    return frozenset().union(*(part for p in props for part in n.cone(p)))


def extract_coi(n: Netlist, p: int) -> Property:
    """COI size information for property p."""
    inputs, latch_vars, and_vars = n.cone(p)
    return Property(
        index=p,
        bad_literal=n.properties[p],
        coi_inputs=len(inputs),
        coi_latches=len(latch_vars),
        coi_ands=len(and_vars),
    )


def restrict_to_coi(n: Netlist, p: int) -> Netlist:
    """Standalone netlist containing exactly the COI of property p.

    The result has the property as its single bad output; verdicts on it
    equal verdicts of p on the original netlist.
    """
    inputs, latch_vars, and_vars = n.cone(p)
    old_inputs = sorted(inputs)
    old_latches = sorted(latch_vars)
    old_ands = sorted(and_vars)
    remap = {0: 0}
    for new, old in enumerate(old_inputs + old_latches + old_ands):
        remap[old] = new + 1

    def m(lit: int) -> int:
        if lit <= 1:
            return lit
        return 2 * remap[lit_var(lit)] + (lit & 1)

    ni = len(old_inputs)
    latches = tuple(
        Latch(2 * (ni + i + 1), m(n.latch_of_var(v).next), n.latch_of_var(v).reset)
        for i, v in enumerate(old_latches)
    )
    ands = tuple(
        (m(n.and_of_var(v)[0]), m(n.and_of_var(v)[1]), m(n.and_of_var(v)[2]))
        for v in old_ands
    )
    return Netlist(
        name=f"{n.name}#p{p}" if n.name else f"#p{p}",
        num_inputs=ni,
        latches=latches,
        ands=ands,
        bads=(m(n.properties[p]),),
    )


INIT = "initial-state"
INDUCTIVE = "inductive"


class UnfoldBuilder:
    """Combinational unfolding of a netlist, one frame per `add_frame`.

    Fresh variables are numbered from 1; literals use the same even/odd
    convention as Netlist.  ``frame_inputs[f][i]`` is the literal of input i
    at frame f, ``frame_bads[f][p]`` the literal of property p at frame f,
    and ``frame0_latches`` the frame-0 latch literals.  Initial-state mode
    pins frame-0 latches at their reset values (constants where the reset
    is specified); inductive mode leaves them free, over-approximating the
    reachable states.

    ``cone`` is the set of netlist variables to unfold (None: every one).
    A variable outside it gets literal 0 (constant false) instead of a
    fresh variable, and its AND gate or next-state function is skipped, so
    only the bads of properties whose COI lies inside ``cone`` are exact.
    """

    def __init__(self, n: Netlist, mode: str, cone: set | None = None):
        if mode not in (INIT, INDUCTIVE):
            raise ValueError(f"unknown mode {mode!r}")
        keep = (lambda var: True) if cone is None else cone.__contains__
        self.netlist = n
        self.mode = mode
        self.num_vars = 0
        self.frames = 0
        self.frame_inputs: list = []
        self.frame_bads: list = []
        self.frame0_latches: list = []
        self._inputs = [keep(var) for var in range(1, n.num_inputs + 1)]
        self._latches = [
            latch if keep(lit_var(latch.lit)) else None for latch in n.latches
        ]
        self._ands = [g for g in n.ands if keep(lit_var(g[0]))]

    def _fresh(self) -> int:
        self.num_vars += 1
        return 2 * self.num_vars

    def add_frame(self):
        """Unfold one more frame; returns the new (out, a, b) AND triples."""
        n = self.netlist
        if self.frames == 0:
            latch_lits = []
            for latch in self._latches:
                if latch is None:
                    latch_lits.append(0)
                elif self.mode == INDUCTIVE or latch.reset is None:
                    latch_lits.append(self._fresh())
                else:
                    latch_lits.append(latch.reset)  # constant 0 or 1
            self.frame0_latches = list(latch_lits)
        else:
            prev = self._frame_map
            latch_lits = [
                0 if latch is None else _map_lit(latch.next, prev)
                for latch in self._latches
            ]
        input_lits = [self._fresh() if kept else 0 for kept in self._inputs]
        self.frame_inputs.append(input_lits)

        # frame_map[var] -> combinational literal of that variable's output
        frame_map = [0] * (n.max_var + 1)
        for i, lit in enumerate(input_lits):
            frame_map[i + 1] = lit
        for i, lit in enumerate(latch_lits):
            frame_map[n.num_inputs + 1 + i] = lit
        triples = []
        for lhs, rhs0, rhs1 in self._ands:
            a = _map_lit(rhs0, frame_map)
            b = _map_lit(rhs1, frame_map)
            out = self._fresh()
            frame_map[lit_var(lhs)] = out
            triples.append((out, a, b))
        self.frame_bads.append([_map_lit(bad, frame_map) for bad in n.properties])
        self._frame_map = frame_map
        self.frames += 1
        return triples


def _map_lit(lit: int, frame_map) -> int:
    if lit <= 1:
        return lit
    return frame_map[lit_var(lit)] ^ (lit & 1)
