"""Walkthrough: the incremental SAT core and bounded model checking.

First the solver alone on a pigeonhole instance (unsatisfiable, and the
proof costs real conflicts), then BMC on the counter: the bad state
"counter == 5" is reached at depth 5 and the extracted trace replays,
while an unreachable parity miter is only refuted up to the frame bound.
"""

from clusterbmc import BmcConfig, check_single, new_solver, replay_cex
from clusterbmc.circuits import counter, parity_miter

# pigeonhole: 5 pigeons, 4 holes
holes = 4
var = lambda p, h: p * holes + h + 1
s = new_solver(seed=0)
for p in range(holes + 1):
    s.add_clause([var(p, h) for h in range(holes)])
for h in range(holes):
    for p1 in range(holes + 1):
        for p2 in range(p1 + 1, holes + 1):
            s.add_clause([-var(p1, h), -var(p2, h)])
res = s.solve()
print(f"pigeonhole({holes + 1},{holes}): {res.status} "
      f"after {res.conflicts_this_call} conflicts")

# the same session answers again instantly thanks to learned clauses
res2 = s.solve()
print(f"repeat query: {res2.status} after {res2.conflicts_this_call} conflicts")

# BMC finds the counter's bad state and the trace replays concretely
n = counter(3, (5,))
cfg = BmcConfig(conflict_budget=10_000, max_frames=8, seed=0)
v = check_single(n, 0, cfg)
print(f"\ncounter==5: {v.status} at depth {v.depth}")
print("trace replay:", replay_cex(n, 0, v.cex))

# an unreachable property is refuted frame by frame up to the bound; BMC
# alone proves nothing deeper, so the verdict stays UNDET
m = parity_miter(width=5)
v = check_single(m, 0, BmcConfig(conflict_budget=10_000, max_frames=4,
                                 seed=0))
print(f"parity miter: {v.status}, refuted up to depth {v.depth} "
      f"(per-frame conflicts: {[s.conflicts for s in v.per_frame]})")
