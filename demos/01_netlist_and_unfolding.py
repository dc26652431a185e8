"""Walkthrough: building a circuit, round-tripping it, and slicing cones.

A 3-bit up-counter with two bad outputs ("counter == 5" and "counter == 6")
is enough to show the whole netlist surface: AIGER text round-trips, cone
of influence extraction per property, and time-unfolding from reset.
"""

from dataclasses import replace

from clusterbmc import extract_coi, parse_aiger, serialize_aiger
from clusterbmc.circuits import counter
from clusterbmc.netlist import UnfoldBuilder

n = counter(3, bad_values=(5, 6))
print("circuit:", n.num_inputs, "inputs,", n.num_latches, "latches,",
      n.num_ands, "AND gates,", n.num_properties, "properties")

text = serialize_aiger(n)
print("\nAIGER text:")
print(text)

again = parse_aiger(text, name="counter")
assert serialize_aiger(again) == text
print("round-trip is byte-identical")

for p in range(n.num_properties):
    inputs, latches, ands = extract_coi(n, p)
    print(f"property {p}: cone = {inputs} inputs, "
          f"{latches} latches, {ands} ANDs")

# unfolding: frame 0 pins each latch at its reset, and BMC adds one frame
# at a time.  Literals are the SAT solver's (DIMACS): variable 1 is the
# constant false, so a reset-0 latch reads 1, and fresh variables count
# from 2.  Constants fold as frames unroll, so a counter with no inputs
# needs no variable from reset.  A latch with no reset (AIGER: reset = its
# own literal) is free at frame 0, so a copy whose latches have no reset
# unfolds from every state, an over-approximation of reachability.  The
# cone here is every variable; BMC passes the cone of its properties
free = replace(n, latches=tuple(replace(latch, reset=None)
                                for latch in n.latches))
for label, design in (("from reset", n), ("free latches", free)):
    u = UnfoldBuilder(design, cone=range(1, design.max_var + 1))
    for _ in range(3):
        u.add_frame()
    print(f"{label}: frame-0 latch literals = {list(u.frame0_latches)}, "
          f"{u.num_vars - 1} fresh variables over {u.frames} frames")
