import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterbmc import netlist
from clusterbmc.circuits import AigBuilder, counter, random_netlist, two_counters
from clusterbmc.netlist import (
    AigerError,
    BinaryFormatUnsupported,
    InputArityMismatch,
    Latch,
    MalformedHeader,
    Netlist,
    extract_coi,
    parse_aiger,
    restrict_to_coi,
    serialize_aiger,
)


def test_parse_minimal():
    n = parse_aiger("aag 0 0 0 0 0\n")
    assert n.num_inputs == 0 and n.num_latches == 0 and n.num_ands == 0


def test_parse_and_gate():
    text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"
    n = parse_aiger(text)
    assert n.ands == ((6, 4, 2),) or n.ands == ((6, 2, 4),)
    assert n.properties == (6,)


def test_binary_rejected():
    with pytest.raises(BinaryFormatUnsupported):
        parse_aiger("aig 3 2 0 1 1\n")


def test_malformed_header():
    with pytest.raises(MalformedHeader):
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
    with pytest.raises(AigerError):
        parse_aiger(text)


def test_netlist_rejects_negative_and_operand():
    with pytest.raises(AigerError):
        Netlist(name="", num_inputs=1, latches=(), ands=((4, -2, 2),),
                outputs=(4,))
    with pytest.raises(AigerError):
        Netlist(name="", num_inputs=0, latches=(Latch(2, -1, 0),), ands=())


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
    except AigerError:
        return
    assert isinstance(n, Netlist)


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
    with pytest.raises(InputArityMismatch):
        n.eval_frame([False] * 3, [True])


def test_coi_sizes_two_counters():
    n = two_counters(bits=2)
    c0 = extract_coi(n, 0)
    c1 = extract_coi(n, 1)
    assert c0.coi_latches == 2 and c1.coi_latches == 2
    assert c0.coi_inputs == 0


def test_restrict_to_coi_sizes_and_idempotence():
    for trial in range(30):
        rng = random.Random(1000 + trial)
        n = random_netlist(rng, num_bads=2)
        p = rng.randrange(n.num_properties)
        c = extract_coi(n, p)
        sub = restrict_to_coi(n, p)
        assert sub.num_properties == 1
        assert (sub.num_inputs, sub.num_latches, sub.num_ands) == (
            c.coi_inputs, c.coi_latches, c.coi_ands
        )
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


def unfold_ands(builder, frames):
    return [t for _ in range(frames) for t in builder.add_frame()]


def test_unfold_init_vs_inductive():
    n = counter(2, (1,))
    init = netlist.UnfoldBuilder(n, netlist.INIT)
    free = netlist.UnfoldBuilder(n, netlist.INDUCTIVE)
    init.add_frame()
    free.add_frame()
    # initial-state mode pins reset-0 latches to constant false literals
    assert all(lit in (0, 1) for lit in init.frame0_latches)
    assert all(lit > 1 for lit in free.frame0_latches)


def test_unfold_full_cone_equals_unfold():
    # cone=None ("every variable") is the reference for an explicit cone
    # holding every variable
    n = counter(2, (1,))
    assert unfold_ands(netlist.UnfoldBuilder(n, netlist.INIT), 2) == [
        (2, 0, 1), (4, 1, 0), (6, 5, 3), (8, 0, 0),
        (10, 7, 0), (12, 6, 1), (14, 13, 11), (16, 7, 1),
    ]
    for trial in range(30):
        n = random_netlist(random.Random(1100 + trial), num_bads=3)
        for mode in (netlist.INIT, netlist.INDUCTIVE):
            want = netlist.UnfoldBuilder(n, mode)
            every = netlist.UnfoldBuilder(n, mode, set(range(1, n.max_var + 1)))
            assert unfold_ands(every, 4) == unfold_ands(want, 4)
            assert every.num_vars == want.num_vars
            assert every.frame_inputs == want.frame_inputs
            assert every.frame_bads == want.frame_bads
            assert every.frame0_latches == want.frame0_latches


def test_unfold_cone_matches_restricted_netlist():
    # same fresh numbering: the cone's latches, inputs and ANDs keep their
    # order in restrict_to_coi, and everything outside gets no variable
    for trial in range(30):
        rng = random.Random(1200 + trial)
        n = random_netlist(rng, num_bads=3)
        p = rng.randrange(n.num_properties)
        inputs, latches, _ = netlist._coi_vars(n, p)
        sub = restrict_to_coi(n, p)
        for mode in (netlist.INIT, netlist.INDUCTIVE):
            cut = netlist.UnfoldBuilder(n, mode, netlist.cone_vars(n, [p]))
            ref = netlist.UnfoldBuilder(sub, mode)
            for _ in range(4):
                assert cut.add_frame() == ref.add_frame()
                assert cut.frame_bads[-1][p] == ref.frame_bads[-1][0]
                assert [cut.frame_inputs[-1][v - 1] for v in sorted(inputs)] == (
                    ref.frame_inputs[-1])
            assert cut.num_vars == ref.num_vars
            first_latch = n.num_inputs + 1
            assert [cut.frame0_latches[v - first_latch] for v in sorted(latches)] == (
                ref.frame0_latches)


def test_unfold_cone_of_one_counter():
    # property 0 watches counter A (latches 0-1); counter B (latches 2-3)
    # is outside its cone
    n = two_counters()
    sub = restrict_to_coi(n, 0)
    b = netlist.UnfoldBuilder(n, netlist.INDUCTIVE, netlist.cone_vars(n, [0]))
    for _ in range(4):
        triples = b.add_frame()
        assert len(triples) == sub.num_ands < n.num_ands
        # no gate of counter A reads a constant, so a 0 or 1 operand
        # would be a latch of counter B
        assert all(x > 1 and y > 1 for _, x, y in triples)
        assert b._frame_map[3:5] == [0, 0]  # latch variables 3 and 4
    assert b.frame0_latches[2:] == [0, 0]
    assert all(lit > 1 for lit in b.frame0_latches[:2])


def test_unfold_cone_input_outside_gets_literal_zero():
    b = AigBuilder(num_inputs=2, num_latches=1)
    b.set_latch(0, b.not_(b.input_lit(0)))
    b.add_bad(b.and_(b.input_lit(0), b.latch_lit(0)))
    b.add_bad(b.input_lit(1))
    n = b.build()
    builder = netlist.UnfoldBuilder(n, netlist.INIT, netlist.cone_vars(n, [0]))
    for _ in range(3):
        assert len(builder.add_frame()) == 1
    assert [lits[1] for lits in builder.frame_inputs] == [0, 0, 0]
    assert all(lits[0] > 1 for lits in builder.frame_inputs)
