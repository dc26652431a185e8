"""The unfolder of `clusterbmc.netlist.UnfoldBuilder` in Python: the
reference the C kernel's unfolder (`src/clusterbmc/_cdcl.c`) is checked
against, frame by frame.  The package runs only the kernel.

It has the kernel builder's interface and semantics, and two attributes
more for the tests: ``gates``, the last frame's gates as tuples, and
``_frame_map``, each netlist variable's literal at the last frame.
"""

from __future__ import annotations

from clusterbmc.netlist import Netlist, lit_var


class UnfoldBuilder:
    """Combinational unfolding of a netlist, one frame per `add_frame`,
    as `clusterbmc.netlist.UnfoldBuilder` describes it; ``frame_inputs``,
    ``frame0_latches``, ``bads`` and ``records`` are lists."""

    def __init__(self, n: Netlist, *, cone=None):
        keep = (lambda var: True) if cone is None else set(cone).__contains__
        self.netlist = n
        self.num_vars = 0
        self.frames = 0
        self.frame_inputs: list = []
        self.bads: list = []
        self.frame0_latches: list = []
        self.records: list = []
        self.gates: list = []
        self._inputs = [keep(var) for var in range(1, n.num_inputs + 1)]
        self._latches = [
            latch if keep(lit_var(latch.lit)) else None for latch in n.latches
        ]
        xors = n.xors()
        tops = {top: n.and_of_var(g1) for top, g1, _ in xors}
        inner = {g for _, g1, g2 in xors for g in (g1, g2)}
        # per kept AND: (variable, operand, operand, xor), where xor is
        # True for an XOR top, False for an AND and None for an inner gate
        self._gates = []
        for lhs, rhs0, rhs1 in n.ands:
            var = lit_var(lhs)
            if not keep(var):
                continue
            xor = var in tops
            if xor:
                _, rhs0, rhs1 = tops[var]
            elif var in inner:
                xor = None
            self._gates.append((var, rhs0, rhs1, xor))

    def _fresh(self) -> int:
        self.num_vars += 1
        return 2 * self.num_vars

    def add_frame(self) -> list:
        """Unfold one more frame.

        Returns each kept gate's literal, -1 for an inner gate.  Sets
        ``gates`` to one entry per kept AND gate, XOR inner gates
        included: None for a gate that got no variable, else
        ``(out, a, b, xor)``, whose operands are never constants and which
        states ``out = a XOR b`` if ``xor``, ``out = a AND b`` otherwise.
        """
        n = self.netlist
        if self.frames == 0:
            latch_lits = [
                latch.reset if latch.reset is not None
                else 0 if kept is None else self._fresh()
                for latch, kept in zip(n.latches, self._latches)
            ]
            self.frame0_latches = list(latch_lits)
        else:
            prev = self._frame_map
            latch_lits = [
                0 if latch is None else prev[latch.next >> 1] ^ (latch.next & 1)
                for latch in self._latches
            ]
        input_lits = [self._fresh() if kept else 0 for kept in self._inputs]
        self.frame_inputs += input_lits

        # fm[var] -> combinational literal of that variable's output; fm[0]
        # stays 0, so fm[lit >> 1] ^ (lit & 1) maps constants to themselves
        fm = [0] * (n.max_var + 1)
        fm[1:n.num_inputs + 1] = input_lits
        fm[n.num_inputs + 1:n.num_inputs + 1 + n.num_latches] = latch_lits
        gates, lits = [], []
        for var, rhs0, rhs1, xor in self._gates:
            if xor is None:
                gates.append(None)
                lits.append(-1)
                continue
            a = fm[rhs0 >> 1] ^ (rhs0 & 1)
            b = fm[rhs1 >> 1] ^ (rhs1 & 1)
            if a > 1 and b > 1 and a ^ b > 1:   # two distinct variables
                out = self._fresh()
                gates.append((out, a, b, xor))
            else:
                gates.append(None)
                if xor:
                    # a constant flips or clears the other operand's sign;
                    # p and +-q give 0 or 1
                    out = a ^ b
                elif a == b or b == 1:
                    out = a
                elif a == 1:
                    out = b
                else:   # a 0 operand, or complementary operands
                    out = 0
            fm[var] = out
            lits.append(out)
        self.bads = [fm[bad >> 1] ^ (bad & 1) for bad in n.properties]
        self.records = records(gates)
        self.gates = gates
        self._frame_map = fm
        self.frames += 1
        return lits


def records(gates) -> list:
    """The clause records of a frame's gates in solver numbering, where
    combinational variable k is solver variable k + 1: 4 clauses over p
    and q per XOR, the 3 Tseitin clauses per other AND."""
    out = []
    for gate in gates:
        if gate is None:
            continue
        lit, a, b, xor = gate
        # no operand is a constant and no output is negated
        o = (lit >> 1) + 1
        sa = -(a >> 1) - 1 if a & 1 else (a >> 1) + 1
        sb = -(b >> 1) - 1 if b & 1 else (b >> 1) + 1
        if xor:
            out += (3, -o, sa, sb, 3, -o, -sa, -sb,
                    3, o, -sa, sb, 3, o, sa, -sb)
        else:
            out += (2, -o, sa, 2, -o, sb, 3, o, -sa, -sb)
    return out
