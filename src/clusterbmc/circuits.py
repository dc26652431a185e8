"""Programmatic AIG construction and the fixture families used by tests
and demos.

The builder enforces the canonical AIGER variable layout (inputs, latches,
ANDs) by taking input/latch counts up front; gate helpers return literals.
"""

from __future__ import annotations

import random

from .netlist import Latch, Netlist

FALSE = 0
TRUE = 1


class AigBuilder:
    def __init__(self, num_inputs: int = 0, num_latches: int = 0, name: str = ""):
        self.name = name
        self.num_inputs = num_inputs
        self._latch_resets = [0] * num_latches
        self._latch_next = [None] * num_latches
        self._ands: list = []
        self._and_cache: dict = {}
        self._outputs: list = []
        self._bads: list = []
        self._next_var = num_inputs + num_latches

    def input_lit(self, i: int) -> int:
        return 2 * (i + 1)

    def latch_lit(self, i: int) -> int:
        return 2 * (self.num_inputs + i + 1)

    def set_latch(self, i: int, next_lit: int, reset: int | None = 0):
        self._latch_next[i] = next_lit
        self._latch_resets[i] = reset

    def not_(self, a: int) -> int:
        return a ^ 1

    def and_(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE or a == (b ^ 1):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        key = (a, b) if a < b else (b, a)
        lhs = self._and_cache.get(key)
        if lhs is None:
            self._next_var += 1
            lhs = 2 * self._next_var
            self._ands.append((lhs, key[1], key[0]))
            self._and_cache[key] = lhs
        return lhs

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def eq_const(self, bit_lits, value: int) -> int:
        """Conjunction asserting the given bits spell `value` (LSB first)."""
        acc = TRUE
        for i, lit in enumerate(bit_lits):
            bit = (value >> i) & 1
            acc = self.and_(acc, lit if bit else lit ^ 1)
        return acc

    def add_output(self, lit: int):
        self._outputs.append(lit)

    def add_bad(self, lit: int):
        self._bads.append(lit)

    def build(self) -> Netlist:
        for i, nxt in enumerate(self._latch_next):
            if nxt is None:
                raise ValueError(f"latch {i} has no next-state function")
        latches = tuple(
            Latch(self.latch_lit(i), self._latch_next[i], self._latch_resets[i])
            for i in range(len(self._latch_next))
        )
        return Netlist(
            name=self.name,
            num_inputs=self.num_inputs,
            latches=latches,
            ands=tuple(self._ands),
            outputs=tuple(self._outputs),
            bads=tuple(self._bads),
        )


def counter(bits: int = 3, bad_values=(5,), name: str = "counter") -> Netlist:
    """Up-counter from 0; one bad output per value in `bad_values`.

    With reset 0, bad "counter == v" first holds at frame v (for v < 2^bits).
    """
    b = AigBuilder(num_inputs=0, num_latches=bits, name=name)
    lits = [b.latch_lit(i) for i in range(bits)]
    carry = TRUE
    for i in range(bits):
        b.set_latch(i, b.xor_(lits[i], carry))
        carry = b.and_(carry, lits[i])
    for v in bad_values:
        b.add_bad(b.eq_const(lits, v))
    return b.build()


def two_counters(bits: int = 2, bad_a: int = 3, bad_b: int = 2,
                 name: str = "twoctr") -> Netlist:
    """Two independent counters; property 0 watches the first, 1 the second."""
    b = AigBuilder(num_inputs=0, num_latches=2 * bits, name=name)
    groups = [
        [b.latch_lit(i) for i in range(bits)],
        [b.latch_lit(bits + i) for i in range(bits)],
    ]
    for g, lits in enumerate(groups):
        carry = TRUE
        for i, lit in enumerate(lits):
            b.set_latch(g * bits + i, b.xor_(lit, carry))
            carry = b.and_(carry, lit)
    b.add_bad(b.eq_const(groups[0], bad_a))
    b.add_bad(b.eq_const(groups[1], bad_b))
    return b.build()


def _xor_chain(b: AigBuilder, leaves, left_assoc: bool) -> int:
    acc = leaves[0] if left_assoc else leaves[-1]
    rest = leaves[1:] if left_assoc else leaves[-2::-1]
    for lit in rest:
        acc = b.xor_(acc, lit)
    return acc


def _miter_leaves(b: AigBuilder, width: int):
    """Shifted-state-xor-input leaves: keeps every latch in the bad cone and
    gives each frame fresh free variables."""
    leaves = []
    for i in range(width):
        leaves.append(b.xor_(b.input_lit(i), b.latch_lit(i)))
    for i in range(width):
        b.set_latch(i, leaves[(i + 1) % width])
    return leaves


def parity_miter(width: int = 9, copies: int = 1, variants: int = 1,
                 name: str = "miter") -> Netlist:
    """Parity-equivalence miters: per-frame UNSAT queries that need search.

    Two differently associated XOR chains over the same leaves always agree,
    so every bad output is unreachable, yet refuting it at each frame costs
    the solver real conflicts.  `copies` duplicates the first miter output
    (identical properties); `variants` > 1 adds distinct properties that
    conjoin the same miter with one extra leaf, so the extra cones share all
    but one gate with the first.
    """
    b = AigBuilder(num_inputs=width, num_latches=width, name=name)
    leaves = _miter_leaves(b, width)
    left = _xor_chain(b, leaves, True)
    bad0 = b.xor_(left, _xor_chain(b, leaves, False))
    for _ in range(copies):
        b.add_bad(bad0)
    for v in range(1, variants):
        b.add_bad(b.and_(bad0, leaves[v - 1]))
    return b.build()


def duplicated_property_family(copies: int, width: int = 9,
                               name: str = "dup") -> Netlist:
    """The same unreachable property embedded `copies` times.

    The extreme case of functional similarity: clause sharing in a cluster
    run should cost far fewer conflicts than the standalone sum.
    """
    return parity_miter(width=width, copies=copies, name=f"{name}{copies}")


def shared_coi_pair(width: int = 9, name: str = "shared") -> Netlist:
    """Two distinct properties whose cones overlap almost completely."""
    return parity_miter(width=width, copies=1, variants=2, name=name)


def deep_sat_miter(width: int = 10, depth: int = 4, seed: int = 0,
                   name: str = "deep") -> Netlist:
    """A parity miter XORed with the last bits of a shift register: bads
    that hold at known depths, which only search can reach.

    Inputs and latches 0..width-1 form a parity-equivalence miter whose
    chains take the leaves in an order drawn from `seed`.  Input `width`
    feeds a shift register of `depth` latches that reset to 0.  Property 0
    is miter XOR shift[depth-1], property 1 is miter XOR shift[depth-2].
    The miter is always 0, so from reset property 0 first holds at frame
    `depth` and property 1 at frame `depth` - 1, and every earlier frame is
    refuted only through the miter, which costs conflicts.  From a free
    initial state both hold at frame 0.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    b = AigBuilder(num_inputs=width + 1, num_latches=width + depth, name=name)
    order = random.Random(seed).sample(_miter_leaves(b, width), width)
    miter = b.xor_(_xor_chain(b, order, True), _xor_chain(b, order, False))
    shift = [b.latch_lit(width + i) for i in range(depth)]
    b.set_latch(width, b.input_lit(width))
    for i in range(1, depth):
        b.set_latch(width + i, shift[i - 1])
    b.add_bad(b.xor_(miter, shift[-1]))
    b.add_bad(b.xor_(miter, shift[-2]))
    return b.build()


def random_netlist(
    rng: random.Random,
    max_inputs: int = 4,
    max_latches: int = 6,
    max_ands: int = 40,
    num_bads: int = 1,
    name: str = "rand",
) -> Netlist:
    """Seeded random sequential netlist for oracle-equivalence testing."""
    ni = rng.randint(0, max_inputs)
    nl = rng.randint(0 if ni else 1, max_latches)
    na = rng.randint(1, max_ands)
    b = AigBuilder(num_inputs=ni, num_latches=nl, name=name)
    pool = [TRUE, FALSE]
    pool += [b.input_lit(i) for i in range(ni)]
    pool += [b.latch_lit(i) for i in range(nl)]

    def pick():
        lit = rng.choice(pool)
        return lit ^ 1 if rng.random() < 0.5 else lit

    for _ in range(na):
        lit = b.and_(pick(), pick())
        if lit > 1:
            pool.append(lit)
    for i in range(nl):
        b.set_latch(i, pick(), reset=rng.choice([0, 0, 1]))
    for _ in range(num_bads):
        b.add_bad(pick())
    return b.build()
