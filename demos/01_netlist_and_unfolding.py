"""Walkthrough: building a circuit, round-tripping it, and slicing cones.

A 3-bit up-counter with two bad outputs ("counter == 5" and "counter == 6")
is enough to show the whole netlist surface: AIGER text round-trips, cone
of influence extraction per property, and time-unfolding in both modes.
"""

from clusterbmc import INIT, INDUCTIVE, extract_coi, parse_aiger, serialize_aiger
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
    c = extract_coi(n, p)
    print(f"property {p}: cone = {c.coi_inputs} inputs, "
          f"{c.coi_latches} latches, {c.coi_ands} ANDs")

# unfolding: initial-state mode pins latches at their resets, inductive
# mode leaves frame 0 free (an over-approximation of reachability); BMC
# adds one frame at a time
for mode in (INIT, INDUCTIVE):
    u = UnfoldBuilder(n, mode)
    for _ in range(3):
        u.add_frame()
    print(f"{mode}: frame-0 latch literals = {u.frame0_latches}, "
          f"{u.num_vars} fresh variables over {u.frames} frames")
