"""The unfolder of `clusterbmc.netlist.UnfoldBuilder` in Python: the
reference the C kernel's unfolder (`src/clusterbmc/_cdcl.c`) is checked
against, frame by frame.  The package runs only the kernel.

It has the kernel builder's interface and semantics, and two attributes
more for the tests: ``gates``, the last frame's gates as tuples, and
``_frame_map``, each netlist variable's literal at the last frame.
"""

from __future__ import annotations

from clusterbmc.netlist import Netlist, lit_var
from oracles import gate_kinds


class UnfoldBuilder:
    """Combinational unfolding of a netlist, one frame per `add_frame`,
    as `clusterbmc.netlist.UnfoldBuilder` describes it; ``frame_inputs``,
    ``frame0_latches``, ``bads`` and ``records`` are lists."""

    def __init__(self, n: Netlist, *, cone=None):
        keep = (lambda var: True) if cone is None else set(cone).__contains__
        self.netlist = n
        self.num_vars = 1   # solver variable 1 is the constant false
        self.frames = 0
        self.frame_inputs: list = []
        self.bads: list = []
        self.frame0_latches: list = []
        self.records: list = []
        self.gates: list = []
        self._inputs = [keep(var) for var in range(1, n.num_inputs + 1)]
        self._latches = [
            latch if keep(n.num_inputs + 1 + i) else None
            for i, latch in enumerate(n.latches)
        ]
        # per kept AND: (variable, operand, operand, xor), where xor is
        # True for an XOR top, False for an AND and None for an inner gate;
        # a top's operands are those of its g1 = AND(p, q)
        self._gates = []
        for (lhs, rhs0, rhs1), kind in zip(n.ands, gate_kinds(n)):
            var = lit_var(lhs)
            if not keep(var):
                continue
            if kind == 1:
                _, rhs0, rhs1 = n.and_of_var(lit_var(rhs0))
            self._gates.append((var, rhs0, rhs1, (False, True, None)[kind]))

    def _fresh(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_frame(self) -> list:
        """Unfold one more frame.

        Returns each kept gate's literal, 0 for an inner gate.  Sets
        ``gates`` to one entry per kept AND gate, XOR inner gates
        included: None for a gate that got no variable, else
        ``(out, a, b, xor)``, whose operands are never constants and which
        states ``out = a XOR b`` if ``xor``, ``out = a AND b`` otherwise.
        """
        n = self.netlist
        if self.frames == 0:
            latch_lits = [
                (-1 if latch.reset else 1) if latch.reset is not None
                else 1 if kept is None else self._fresh()
                for latch, kept in zip(n.latches, self._latches)
            ]
            self.frame0_latches = list(latch_lits)
        else:
            latch_lits = [
                1 if latch is None else self._lit(latch.next)
                for latch in self._latches
            ]
        input_lits = [self._fresh() if kept else 1 for kept in self._inputs]
        self.frame_inputs += input_lits

        # fm[var] -> solver literal of that variable's output; fm[0] stays
        # 1, false, as does every variable outside the cone
        fm = self._frame_map = [1] * (n.max_var + 1)
        fm[1:n.num_inputs + 1] = input_lits
        fm[n.num_inputs + 1:n.num_inputs + 1 + n.num_latches] = latch_lits
        gates, lits = [], []
        for var, rhs0, rhs1, xor in self._gates:
            if xor is None:
                gates.append(None)
                lits.append(0)
                continue
            a, b = self._lit(rhs0), self._lit(rhs1)
            if abs(a) > 1 and abs(b) > 1 and abs(a) != abs(b):
                # two distinct variables
                out = self._fresh()
                gates.append((out, a, b, xor))
            else:
                gates.append(None)
                if xor:
                    # a constant (false 1, true -1) keeps or flips the
                    # other operand's sign; p and +-q give false or true
                    out = (a * b if 1 in (abs(a), abs(b))
                           else 1 if a == b else -1)
                elif a == b or b == -1:
                    out = a
                elif a == -1:
                    out = b
                else:   # a false operand, or complementary operands
                    out = 1
            fm[var] = out
            lits.append(out)
        self.bads = [self._lit(bad) for bad in n.properties]
        self.records = records(gates)
        self.gates = gates
        self.frames += 1
        return lits

    def _lit(self, lit: int) -> int:
        """The solver literal of netlist literal `lit` at the frame being
        unfolded, or at the last one."""
        d = self._frame_map[lit >> 1]
        return -d if lit & 1 else d


def records(gates) -> list:
    """The clause records of a frame's gates: 4 clauses over p and q per
    XOR, the 3 Tseitin clauses per other AND."""
    out = []
    for gate in gates:
        if gate is None:
            continue
        o, a, b, xor = gate
        if xor:
            out += (3, -o, a, b, 3, -o, -a, -b,
                    3, o, -a, b, 3, o, a, -b)
        else:
            out += (2, -o, a, 2, -o, b, 3, o, -a, -b)
    return out
