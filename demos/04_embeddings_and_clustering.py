"""Walkthrough: from property cones to an overlapping cluster family.

Each property cone is summarized by per-gate logic-1 ratios under random
stimuli, reduced with PCA at 95% retained variance, then grouped by
k-means and k-medoids across the whole k range.  Functionally similar
properties end up in the same clusters; the family deliberately overlaps.
"""

import numpy as np

from clusterbmc import build_family, fit_pca
from clusterbmc.circuits import counter, parity_miter, two_counters
from clusterbmc.embed import design_signatures, project_all

# a small mixed corpus: counter properties resemble each other, the two
# miter variants resemble each other, and the families differ
designs = [
    counter(3, (5, 6), name="ctr"),
    two_counters(name="twoctr"),
    parity_miter(width=5, copies=1, variants=2, name="miter"),
]
# one simulation per design gives every property's signature, which
# carries the design's name
tensors = [t for n in designs
           for t in design_signatures(n, patterns=1024, seed=0)]

pca = fit_pca(tensors)
print(f"PCA: width {pca.width} -> {pca.num_components} components, "
      f"explained ratio {pca.explained_ratio:.4f}")

reduced = {}
for t, vector in zip(tensors, project_all(pca, tensors)):
    reduced.setdefault(t.design, {})[t.property] = vector

for name, emb in reduced.items():
    if len(emb) < 2:
        continue
    fam = build_family(emb, seed=0)
    print(f"\n{name}: {len(fam.clusters)} clusters")
    for c in fam.clusters:
        print(f"  {sorted(c.members)}  ({c.origin})")

# raw signature similarity of the miter's two cones, before reduction
m = [np.array(t.values) for t in tensors if t.design == "miter"]
cos = float(m[0] @ m[1] / (np.linalg.norm(m[0]) * np.linalg.norm(m[1])))
print(f"\nmiter cone signature cosine similarity: {cos:.4f}")
