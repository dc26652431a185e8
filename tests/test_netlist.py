import dataclasses
import importlib
import os
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterbmc import netlist
from clusterbmc.circuits import (
    AigBuilder,
    counter,
    parity_miter,
    random_netlist,
    two_counters,
)
from clusterbmc.netlist import (
    DataError,
    Latch,
    Netlist,
    extract_coi,
    parse_aiger,
    restrict_to_coi,
    serialize_aiger,
)
import ref_unfold
from oracles import (cone_closure, free_latches, gate_kinds, xor_gates,
                     xor_rich_netlist)


def test_parse_minimal():
    n = parse_aiger("aag 0 0 0 0 0\n")
    assert n.num_inputs == 0 and n.num_latches == 0 and n.num_ands == 0


def test_parse_and_gate():
    text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"
    n = parse_aiger(text)
    assert n.ands == ((6, 4, 2),) or n.ands == ((6, 2, 4),)
    assert n.properties == (6,)


def test_binary_rejected():
    with pytest.raises(DataError,
                       match="binary 'aig' input; convert to ASCII 'aag'"):
        parse_aiger("aig 3 2 0 1 1\n")


def test_malformed_header():
    with pytest.raises(DataError, match="bad header field count"):
        parse_aiger("aag 1 2\n")


@pytest.mark.parametrize("text", [
    "aag 1 0 1 0 0\n2 3 x\n",          # non-numeric latch reset
    "aag 1 1 0 0 0\n\u00b2\n",          # Unicode digit as input literal
    "aag 1 1 0 0 0\n2\ni\u00b2 a\n",     # Unicode digit as symbol index
    "aag 1 1 0 0 0\n\u0663\n",          # non-ASCII decimal digit
    "aag 2 1 0 1 1\n2\n4\n4 -2 2\n",  # negative AND operand
    "aag 1 1 0 0 0\n" + "9" * 5000 + "\n",  # beyond int() digit limit
], ids=["reset", "superscript", "symbol", "arabic", "negative", "long"])
def test_malformed_fields_raise_aiger_error(text):
    with pytest.raises(DataError, match="bad number"):
        parse_aiger(text)


# one document per rejection rule (a header of the wrong field count is
# `test_malformed_header`'s), each one edit from a valid document; the
# first group is checked by `parse_aiger`, which also checks the input and
# latch positions a netlist leaves implicit, the rest by `Netlist`
MALFORMED = {
    "empty": ("", "empty document"),
    "not-aag": ("garbage\n", "expected 'aag' header"),
    "constraints": ("aag 0 0 0 0 0 0 1\n",
                    "constraint/justice/fairness sections not supported"),
    "maxvar": ("aag 2 1 0 0 0\n2\n", "maximum variable index 2 != I+L+A = 1"),
    "truncated": ("aag 2 1 1 0 0\n2\n", "truncated document in latch section"),
    "input-line": ("aag 1 1 0 0 0\n2 3\n", "bad input line"),
    "input-position": ("aag 2 2 0 0 0\n2\n2\n",
                       "input literal 2 out of canonical position"),
    "latch-line": ("aag 1 0 1 0 0\n2\n", "bad latch line"),
    "output-line": ("aag 0 0 0 1 0\n0 1\n", "bad output/bad line"),
    "and-line": ("aag 1 0 0 0 1\n2 0\n", "bad and line"),
    "symbol-line": ("aag 1 1 0 0 0\n2\nx0 a\n", "bad symbol line"),
    "symbol-after-blank": ("aag 1 1 0 0 0\n2\ni0 x\n\nq\n",
                           "bad symbol line: 'q'"),
    "latch-position": ("aag 2 1 1 0 0\n2\n2 0\n",
                       "latch literal 2 out of canonical position"),
    "reset": ("aag 1 0 1 0 0\n2 2 5\n", "bad reset value 5"),
    "negated-and": ("aag 1 0 0 0 1\n3 0 0\n", "negated AND output 3"),
    "and-position": ("aag 2 1 0 0 1\n2\n8 2 2\n",
                     "AND output 8 out of canonical position"),
    "and-operand-later": ("aag 3 1 0 0 2\n2\n4 6 2\n6 2 2\n",
                          "AND 4 references undefined literal 6"),
    "and-operand-range": ("aag 2 1 0 0 1\n2\n4 2 100\n",
                          "AND 4 references undefined literal 100"),
    "next-range": ("aag 1 0 1 0 0\n2 4\n", "literal 4 exceeds variable count"),
    "output-range": ("aag 1 1 0 1 0\n2\n4\n",
                     "literal 4 exceeds variable count"),
    "bad-range": ("aag 1 1 0 0 0 1\n2\n5\n", "literal 5 exceeds variable count"),
}


@pytest.mark.parametrize("text, message", MALFORMED.values(), ids=MALFORMED)
def test_each_rule_rejects_its_document(text, message):
    with pytest.raises(DataError) as exc:
        parse_aiger(text)
    assert message in str(exc.value)


def test_netlist_rejects_negative_and_operand():
    with pytest.raises(DataError, match="AND 4 has negative literal -2"):
        Netlist(name="", num_inputs=1, latches=(), ands=((4, -2, 2),),
                outputs=(4,))
    with pytest.raises(DataError, match="literal -1 exceeds variable count"):
        Netlist(name="", num_inputs=0, latches=(Latch(-1, 0),), ands=())


# near-valid documents: a consistent header, then lines of small literals
# mixed with malformed fields
FIELDS = st.sampled_from(["0", "1", "2", "3", "4", "5", "6", "7", "8", "-2",
                          "x", "\u00b2", "\u0663", "i0", "l1", "o0", "c"])
HEADERS = st.tuples(*[st.integers(0, 2)] * 5).map(
    lambda c: f"aag {c[0] + c[1] + c[3]} {c[0]} {c[1]} {c[2]} {c[3]} {c[4]}")
DOCUMENTS = st.tuples(
    HEADERS, st.lists(st.lists(FIELDS, min_size=1, max_size=3).map(" ".join),
                      max_size=8),
).map(lambda d: "\n".join([d[0], *d[1]]) + "\n")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=40), DOCUMENTS))
def test_parse_aiger_total(text):
    # any text either parses or raises the module's own error type
    try:
        n = parse_aiger(text)
    except DataError:
        return
    assert isinstance(n, Netlist)


def test_symbol_table_and_comment_section_are_dropped():
    # HWMCC files end in a comment section, which may hold any text
    bare = serialize_aiger(counter())
    text = bare + "i0 x\n\nl0 y\nb0 p\nc\nfree | text é\n9 9 9\n"
    assert parse_aiger(text) == parse_aiger(bare)


def test_bad_lines_preferred_over_outputs():
    b = AigBuilder(num_inputs=2)
    g = b.and_(b.input_lit(0), b.input_lit(1))
    b.add_output(g)
    b.add_bad(g ^ 1)
    n = b.build()
    assert n.properties == (g ^ 1,)


def test_roundtrip_random():
    for trial in range(100):
        rng = random.Random(trial)
        n = random_netlist(rng, num_bads=rng.randint(1, 3))
        text = serialize_aiger(n)
        n2 = parse_aiger(text, name=n.name)
        assert serialize_aiger(n2) == text
        assert n2.latches == n.latches
        assert n2.ands == n.ands
        assert n2.bads == n.bads


def test_uninitialized_latch_roundtrip():
    b = AigBuilder(num_inputs=0, num_latches=1)
    b.set_latch(0, b.latch_lit(0), reset=None)
    b.add_bad(b.latch_lit(0))
    n = b.build()
    n2 = parse_aiger(serialize_aiger(n))
    assert n2.latches[0].reset is None


def test_eval_frame_counter():
    n = counter(3, (5,))
    state = [False] * 3
    for step in range(6):
        _, state, bads = n.eval_frame(state, [])
    # after 6 steps the counter reads 6; the bad (==5) held one step earlier
    assert state == [False, True, True]


def test_eval_frame_arity():
    n = counter(3)
    with pytest.raises(ValueError, match="expected 0 inputs, got 1"):
        n.eval_frame([False] * 3, [True])


def test_coi_sizes_two_counters():
    n = two_counters(bits=2)
    c0 = extract_coi(n, 0)
    c1 = extract_coi(n, 1)
    assert c0[1] == 2 and c1[1] == 2
    assert c0[0] == 0


def test_cone_equals_independent_closure():
    # the cone against a fixpoint sweep that shares none of its code, and
    # extract_coi's per-kind counts against the closure's
    rng = random.Random(1600)
    designs = [parity_miter(), two_counters()]
    for _ in range(50):
        n = random_netlist(rng, num_bads=3)
        designs += [n, free_latches(n)]
    for n in designs:
        for p in range(n.num_properties):
            want = cone_closure(n, p)
            assert n.cone(p) == want
            assert extract_coi(n, p) == (
                sum(1 for v in want if v <= n.num_inputs),
                sum(1 for i in range(n.num_latches)
                    if n.num_inputs + 1 + i in want),
                sum(1 for lhs, _, _ in n.ands if lhs >> 1 in want),
            )


def test_properties_of_one_bad_variable_share_one_cone(monkeypatch):
    # a miter's copies repeat a bad literal, and a negated bad has the same
    # variable: one search per variable, by the first property that asks
    searched, coi_vars = [], netlist._coi_vars

    def recording(n, p):
        searched.append(p)
        return coi_vars(n, p)

    monkeypatch.setattr(netlist, "_coi_vars", recording)
    m = parity_miter(width=4, copies=2, variants=2)
    n = dataclasses.replace(m, bads=m.bads + (m.bads[0] ^ 1,))
    last = n.num_properties - 1
    assert n.properties[0] == n.properties[1] == n.properties[last] ^ 1
    cones = [n.cone(p) for p in range(n.num_properties)]
    assert searched == [0] + list(range(2, last))
    assert cones[0] is cones[1] is cones[last]
    assert cones == [cone_closure(n, p) for p in range(n.num_properties)]
    for p in (-1, n.num_properties):
        with pytest.raises(ValueError, match=f"property {p} of "):
            n.cone(p)


def recording_xor_tops(monkeypatch):
    """Patches `AigBuilder.xor_` to collect the top of every XOR it builds."""
    tops = set()
    xor_ = AigBuilder.xor_

    def recording(self, a, b):
        fresh = self._next_var
        lit = xor_(self, a, b)
        if self._next_var == fresh + 3:
            tops.add(lit >> 1)
        return lit

    monkeypatch.setattr(AigBuilder, "xor_", recording)
    return tops


def assert_xors_well_formed(n):
    xors = xor_gates(n)
    tops = [top for top, _, _ in xors]
    inner = [g for _, g1, g2 in xors for g in (g1, g2)]
    assert tops == sorted(tops)
    assert len(set(inner)) == len(inner)
    first_and = n.num_inputs + n.num_latches + 1
    assert set(inner) == {first_and + i for i, kind
                          in enumerate(gate_kinds(n)) if kind == 2}
    # implied by the single-reader rule
    assert not set(tops) & set(inner)
    for top, g1, g2 in xors:
        _, a, b = n.and_of_var(top)
        assert {a, b} == {2 * g1 + 1, 2 * g2 + 1}
        _, p, q = n.and_of_var(g1)
        assert sorted(n.and_of_var(g2)[1:]) == sorted((p ^ 1, q ^ 1))


def test_xors_are_the_xor_gates_of_a_miter_and_a_bank(monkeypatch):
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    workloads = importlib.import_module("workloads")
    for build in (lambda: parity_miter(width=9, variants=3),
                  lambda: workloads.bank(random.Random(101), "bank")):
        with monkeypatch.context() as m:
            built = recording_xor_tops(m)
            n = build()
        assert built and {top for top, _, _ in xor_gates(n)} == built
        assert_xors_well_formed(n)


@pytest.mark.parametrize("reader", ["and", "latch", "bad"])
def test_xors_decline_an_inner_gate_with_a_second_reader(reader):
    b = AigBuilder(num_inputs=2, num_latches=1)
    x, y = b.input_lit(0), b.input_lit(1)
    top = b.xor_(x, y) ^ 1
    inner = b.and_(x, y ^ 1)   # the builder's cache returns the inner gate
    b.add_bad(top)
    b.set_latch(0, b.latch_lit(0))
    plain = b.build()
    [(got_top, *got_inner)] = xor_gates(plain)
    assert got_top == top >> 1
    assert set(got_inner) == {inner >> 1, b.and_(x ^ 1, y) >> 1}
    if reader == "and":
        b.add_bad(b.and_(inner, b.latch_lit(0)))
    if reader == "latch":
        b.set_latch(0, inner)
    if reader == "bad":
        b.add_bad(inner ^ 1)
    assert xor_gates(b.build()) == ()


def test_xors_computed_once_and_not_part_of_equality(monkeypatch):
    # the XOR kinds live in the gate table, built once per netlist
    calls = []
    build = netlist._gate_table
    monkeypatch.setattr(netlist, "_gate_table",
                        lambda n: calls.append(n) or build(n))
    n, twin = parity_miter(width=5), parity_miter(width=5)
    assert n.gate_table() is n.gate_table()
    assert xor_gates(n) and len(calls) == 1
    assert n == twin and hash(n) == hash(twin)
    copy = pickle.loads(pickle.dumps(n))
    assert copy == n and hash(copy) == hash(n)
    assert copy.gate_table() == n.gate_table()


def test_restrict_to_coi_sizes_and_idempotence():
    for trial in range(30):
        rng = random.Random(1000 + trial)
        n = random_netlist(rng, num_bads=2)
        p = rng.randrange(n.num_properties)
        sub = restrict_to_coi(n, p)
        assert sub.num_properties == 1
        assert (sub.num_inputs, sub.num_latches, sub.num_ands) == (
            extract_coi(n, p))
        # restricting the cone again changes nothing
        again = restrict_to_coi(sub, 0)
        assert (again.num_inputs, again.num_latches, again.num_ands) == (
            sub.num_inputs, sub.num_latches, sub.num_ands
        )


def test_restrict_to_coi_preserves_reachability():
    # deterministic counter: the cone of "counter == 5" behaves identically
    n = counter(3, (5,))
    sub = restrict_to_coi(n, 0)
    state_full = [bool(l.reset) for l in n.latches]
    state_sub = [bool(l.reset) for l in sub.latches]
    for step in range(8):
        _, state_full, bads_full = n.eval_frame(state_full, [])
        _, state_sub, bads_sub = sub.eval_frame(state_sub, [])
        assert bads_sub[0] == bads_full[0]


# the C builder and its Python reference; the reference also keeps each
# frame's gates as tuples
BUILDERS = (netlist.UnfoldBuilder, ref_unfold.UnfoldBuilder)


def every_var(n):
    """The cone that unfolds every variable of `n`."""
    return range(1, n.max_var + 1)


def unfold(builder, frames):
    """The gates of `frames` more frames of a reference builder, and each
    frame's bad literals."""
    gates, bads = [], []
    for _ in range(frames):
        builder.add_frame()
        gates += builder.gates
        bads.append(builder.bads)
    return gates, bads


def test_unfold_init_vs_inductive():
    n = counter(2, (1,))
    for builder in BUILDERS:
        init = builder(n, cone=every_var(n))
        free = builder(free_latches(n), cone=every_var(n))
        init.add_frame()
        free.add_frame()
        # frame 0 pins reset-0 latches to constant false literals, and
        # gives a latch with no reset a fresh variable
        assert list(init.frame0_latches) == [1, 1]
        assert all(lit > 1 for lit in free.frame0_latches)
        with pytest.raises(TypeError):   # there is no mode to choose
            builder(n, "inductive")


def frames_of(builder, frames):
    """Each frame's gate literals, bads and clause records, as lists."""
    return [(list(builder.add_frame()), list(builder.bads),
             list(builder.records)) for _ in range(frames)]


def test_unfold_full_cone_equals_unfold():
    # ref_unfold's cone=None ("every variable") against its explicit cone
    # of every variable
    n = counter(2, (1,))
    # from reset the counter has no free variable, so every gate folds and
    # the bad "counter == 1" is constant: false (1) at frame 0, true (-1)
    # at 1, and the only variable is the constant's
    init = ref_unfold.UnfoldBuilder(n)
    assert unfold(init, 2) == ([None] * 8, [[1], [-1]])
    assert init.num_vars == 1
    free = ref_unfold.UnfoldBuilder(free_latches(n))
    gates, bads = unfold(free, 2)
    # the frame-0 latches are variables 2 and 3, frame 0's gates 4-7 and
    # frame 1's 8-11
    assert gates == [
        (4, 3, -2, False), (5, -3, 2, False), (6, -5, -4, False),
        (7, 3, 2, False), (8, -6, 2, False), (9, 6, -2, False),
        (10, -9, -8, False), (11, -6, -2, False),
    ]
    assert (free.num_vars, bads) == (11, [[5], [9]])
    for trial in range(30):
        n = random_netlist(random.Random(1100 + trial), num_bads=3)
        for design in (n, free_latches(n)):
            want = ref_unfold.UnfoldBuilder(design)
            every = ref_unfold.UnfoldBuilder(design, cone=every_var(n))
            # equal gate literals, bads and records at each frame
            assert frames_of(every, 4) == frames_of(want, 4)
            assert every.num_vars == want.num_vars
            assert every.frame_inputs == want.frame_inputs
            assert every.frame0_latches == want.frame0_latches


def test_unfold_cone_matches_restricted_netlist():
    # same fresh numbering: the cone's latches, inputs and ANDs keep their
    # order in restrict_to_coi, and everything outside gets no variable
    for trial in range(30):
        rng = random.Random(1200 + trial)
        n = random_netlist(rng, num_bads=3)
        p = rng.randrange(n.num_properties)
        cone = sorted(netlist._coi_vars(n, p)[0])
        # canonical numbering: inputs 1..I, then latches, then ANDs
        inputs = [v for v in cone if v <= n.num_inputs]
        latches = [v for v in cone
                   if n.num_inputs < v <= n.num_inputs + n.num_latches]
        for design in (n, free_latches(n)):
            sub = restrict_to_coi(design, p)
            for builder in BUILDERS:
                cut = builder(design, cone=netlist.cone_vars(design, [p]))
                ref = builder(sub, cone=every_var(sub))
                for f in range(4):
                    assert list(cut.add_frame()) == list(ref.add_frame())
                    if builder is ref_unfold.UnfoldBuilder:
                        assert cut.gates == ref.gates
                    assert list(cut.records) == list(ref.records)
                    assert cut.bads[p] == ref.bads[0]
                    frame = cut.frame_inputs[f * n.num_inputs:]
                    assert [frame[v - 1] for v in inputs] == list(
                        ref.frame_inputs[f * sub.num_inputs:])
                assert cut.num_vars == ref.num_vars
                first_latch = n.num_inputs + 1
                assert [cut.frame0_latches[v - first_latch]
                        for v in latches] == list(ref.frame0_latches)


def test_unfold_cone_of_one_counter():
    # property 0 watches counter A (latches 0-1); counter B (latches 2-3)
    # is outside its cone
    n = two_counters()
    sub = restrict_to_coi(n, 0)
    b = ref_unfold.UnfoldBuilder(free_latches(n),
                                 cone=netlist.cone_vars(n, [0]))
    for _ in range(4):
        lits = b.add_frame()
        assert len(b.gates) == sub.num_ands < n.num_ands
        # no gate of counter A reads a constant, so a folded gate (None) or
        # a constant operand (1 or -1) would come from a latch of counter
        # B; an XOR's inner gates (literal 0) get no tuple
        gates = [g for g, lit in zip(b.gates, lits) if lit != 0]
        assert gates and all(g is not None and abs(g[1]) > 1
                             and abs(g[2]) > 1 for g in gates)
        assert b._frame_map[3:5] == [1, 1]  # latch variables 3 and 4
    assert b.frame0_latches[2:] == [1, 1]
    assert all(lit > 1 for lit in b.frame0_latches[:2])


def test_unfold_cone_input_outside_reads_false():
    b = AigBuilder(num_inputs=2, num_latches=1)
    b.set_latch(0, b.not_(b.input_lit(0)))
    b.add_bad(b.and_(b.input_lit(0), b.latch_lit(0)))
    b.add_bad(b.input_lit(1))
    n = b.build()
    for unfolder in BUILDERS:
        builder = unfolder(n, cone=netlist.cone_vars(n, [0]))
        for _ in range(3):
            assert len(builder.add_frame()) == 1
        assert list(builder.frame_inputs[1::2]) == [1, 1, 1]
        assert all(lit > 1 for lit in builder.frame_inputs[0::2])


def edge_designs():
    """Designs at the unfolder's edges: no inputs, bads folded to
    constants, and cones of latches only."""
    b = AigBuilder(num_inputs=0, num_latches=2, name="no-inputs")
    b.set_latch(0, b.latch_lit(1), reset=1)
    b.set_latch(1, b.and_(b.latch_lit(0), b.latch_lit(1) ^ 1), reset=None)
    b.add_bad(b.and_(b.latch_lit(0), b.latch_lit(1)))
    no_inputs = b.build()
    # each bad reads a latch stuck at its reset 0, or is a constant
    b = AigBuilder(num_inputs=2, num_latches=1, name="folded")
    b.set_latch(0, b.latch_lit(0))
    b.add_bad(b.and_(b.latch_lit(0), b.input_lit(0)))
    b.add_bad(0)
    b.add_bad(1)
    folded = b.build()
    # property 0's cone is two latches that swap, with no gate
    b = AigBuilder(num_inputs=1, num_latches=3, name="latches")
    b.set_latch(0, b.latch_lit(1), reset=1)
    b.set_latch(1, b.latch_lit(0), reset=None)
    b.set_latch(2, b.and_(b.input_lit(0), b.latch_lit(2)))
    b.add_bad(b.latch_lit(0))
    b.add_bad(b.latch_lit(2))
    latches = b.build()
    assert netlist.extract_coi(latches, 0) == (0, 2, 0)
    return [no_inputs, folded, latches]


def unfold_designs():
    """The designs of the unfold differential; `bench/` must be on the
    import path, for its banks."""
    workloads = importlib.import_module("workloads")
    designs = edge_designs()
    designs += [parity_miter(width=w, variants=2) for w in (4, 7)]
    designs += [workloads.bank(random.Random(k), "bank") for k in range(2)]
    for trial in range(25):
        rng = random.Random(17000 + trial)
        designs.append(random_netlist(rng, num_bads=rng.randint(1, 4)))
        designs.append(xor_rich_netlist(rng, num_bads=rng.randint(1, 4))[0])
    return designs


def unfold_against_reference(frames=7):
    """Unfolds each design of `unfold_designs` and its free-latch copy
    with the kernel and with `ref_unfold`, over the cone of every
    variable, the cone of each property, a union of cones, a random set
    of variables, which COI need not close, and the cone of property 0
    among entries outside ``1..max_var``; and requires equal variable
    counts, gate literals, bads, records, frame inputs and frame-0
    latches at every frame.  Returns the number of records compared."""
    compared = 0
    for trial, n in enumerate(unfold_designs()):
        rng = random.Random(trial)
        props = range(n.num_properties)
        union = rng.sample(props, rng.randint(1, n.num_properties))
        variables = range(1, n.max_var + 1)
        cones = [variables, *(netlist.cone_vars(n, [p]) for p in props),
                 netlist.cone_vars(n, union),
                 rng.sample(variables, rng.randint(0, len(variables))),
                 # entries outside 1..max_var, which both ignore
                 [0, -3, *netlist.cone_vars(n, [0]), n.max_var + 1,
                  2 ** 31 - 1]]
        for design in (n, free_latches(n)):
            for cone in cones:
                got = netlist.UnfoldBuilder(design, cone=cone)
                want = ref_unfold.UnfoldBuilder(design, cone=cone)
                for f in range(frames):
                    assert list(got.add_frame()) == want.add_frame(), (trial, f)
                    assert list(got.records) == want.records, (trial, f)
                    assert (got.num_vars, list(got.bads)) == (
                        want.num_vars, want.bads), (trial, f)
                    assert list(got.frame_inputs) == want.frame_inputs
                    assert list(got.frame0_latches) == want.frame0_latches
                    compared += len(want.records)
    return compared


def test_unfold_output_has_room_for_one_frame_exactly():
    # 10 record ints per AND, 16 per XOR top and none per XOR inner gate,
    # counted over the kept gates of any cone, closed under COI or not;
    # free inputs fold no gate, so a frame of every gate fills the room
    b = AigBuilder(num_inputs=3)
    g = b.and_(b.input_lit(0), b.input_lit(1))
    b.add_bad(b.and_(g, b.xor_(b.input_lit(0), b.input_lit(2))))
    n = b.build()
    assert xor_gates(n) == ((7, 6, 5),)
    for cone, room in ((every_var(n), 36), ({7}, 16), ({5, 6}, 0),
                       ({4, 8}, 20), ({1, 2, 3}, 0)):
        builder = netlist.UnfoldBuilder(n, cone=cone)
        assert len(builder._out) - builder._at[-1] == room, cone
        builder.add_frame()
        assert len(builder.records) <= room, cone
    full = netlist.UnfoldBuilder(n, cone=every_var(n))
    full.add_frame()
    assert len(full.records) == 36


def test_kernel_unfolds_as_the_reference(monkeypatch):
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    assert unfold_against_reference() > 100_000
