"""Walkthrough: why verifying similar properties together is cheaper.

The fixture embeds the same unreachable parity-miter property k times.
Standalone runs re-derive the same refutation k times; a cluster run
solves the shared bad literal once and gives every copy its verdict, so
it costs one standalone run, 1/k of the sum.  The second half is the
learned-clause sharing: two distinct properties with almost-identical
cones share one solver session, whose clauses learned for one property
prune the other's search, so it gets deeper within the same total budget.
"""

from clusterbmc import BmcConfig, check_cluster, check_single
from clusterbmc.circuits import duplicated_property_family, shared_coi_pair

print("duplicated property, conflict-budget mode:")
print(f"{'k':>3} {'standalone sum':>15} {'cluster':>9} {'ratio':>7}")
for k in range(2, 6):
    n = duplicated_property_family(k, width=9)
    cfg = BmcConfig(conflict_budget=600, max_frames=3, seed=0)
    single = sum(
        sum(s.conflicts for s in check_single(n, p, cfg).per_frame)
        for p in range(k)
    )
    cv = check_cluster(n, range(k), cfg)
    cluster = sum(s.conflicts for s in cv.per_frame)
    print(f"{k:>3} {single:>15} {cluster:>9} {cluster / single:>7.2f}")

print("\nshared-cone pair, equal per-property budgets:")
n = shared_coi_pair(width=9)
wins = 0
for seed in range(10):
    cfg = BmcConfig(conflict_budget=400, seed=seed)
    singles = [check_single(n, p, cfg).depth for p in (0, 1)]
    cv = check_cluster(n, [0, 1], cfg)
    clustered = [cv.per_property[p].depth for p in (0, 1)]
    wins += all(c >= s for c, s in zip(clustered, singles))
    print(f"seed {seed}: standalone depths {singles} -> clustered {clustered}")
print(f"clustered depth >= standalone in {wins}/10 runs")
