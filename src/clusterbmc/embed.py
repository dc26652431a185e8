"""Functional property embeddings and their PCA reduction.

Every embedding comes from one simulation of its design, on one frame
with free latches and random stimuli drawn per design, which records
every gate's logic-1 ratio.
The stimuli come from `random.Random(seed)`: one `getrandbits(patterns)`
int per latch, then one per input, so bit j of every signal is pattern j
and each AND gate evaluates all patterns with one `&` on Python ints.
A property's signature pools the ratios of its cone to `DEFAULT_WIDTH`
values by bucketed averaging, in the order `restrict_to_coi` numbers the
cone's variables (inputs, latches, ANDs): so it equals a simulation of
the cone alone fed the cone's share of the same stimuli.  A signature
names its design by `Netlist.name`.

PCA is fit once per database build from the LAPACK symmetric eigensolver
(`numpy.linalg.eigh`); the covariance uses 1/(n-1) normalization, and
the model keeps the fewest components that explain `PCA_RETENTION` of
the variance.  One width and one retention serve a whole database.
Every tensor of a build is projected with one matrix product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .netlist import Netlist

DEFAULT_WIDTH = 128   # values per signature
PCA_RETENTION = 0.95  # share of the variance the PCA components explain


@dataclass(frozen=True)
class EmbeddingTensor:
    design: str
    property: int
    values: tuple


def _bucket_pool(ratios, width: int):
    """Average topologically ordered per-gate ratios into `width` buckets."""
    n = len(ratios)
    sums = [0.0] * width
    counts = [0] * width
    for i, r in enumerate(ratios):
        b = i * width // n
        sums[b] += r
        counts[b] += 1
    return tuple(s / c if c else 0.0 for s, c in zip(sums, counts))


def _gate_ratios(n: Netlist, patterns: int, seed: int) -> list:
    """Logic-1 ratio of every variable of `n` (index var - 1) on one frame
    under random stimuli: frame-0 latches are free like the inputs, and
    are drawn first.  Bit j of every signal is pattern j."""
    if patterns < 1:
        raise ValueError("patterns must be >= 1")
    rng = random.Random(seed)
    latch_vals = [rng.getrandbits(patterns) for _ in range(n.num_latches)]
    input_vals = [rng.getrandbits(patterns) for _ in range(n.num_inputs)]
    values, _, _ = n.eval_frame(latch_vals, input_vals,
                                ones=(1 << patterns) - 1)
    return [v.bit_count() / patterns for v in values[1:]]


def simulate_signature(coi: Netlist, patterns: int = 4096,
                       seed: int = 0) -> EmbeddingTensor:
    """Per-gate logic-1 ratios of a whole netlist under random stimuli,
    pooled to `DEFAULT_WIDTH`, as property 0 of the design `coi.name`.

    The netlist is evaluated on one frame with free latches: frame-0
    latches take random values just like the inputs.  Deterministic for
    fixed seed.
    """
    ratios = _gate_ratios(coi, patterns, seed)
    return EmbeddingTensor(coi.name, 0,
                           _bucket_pool(ratios or [0.0], DEFAULT_WIDTH))


def _cone_signature(n: Netlist, p: int, ratios) -> EmbeddingTensor:
    # canonical numbering puts inputs before latches before ANDs, so the
    # sorted cone is the variable order of restrict_to_coi(n, p)
    cone = [ratios[var - 1] for var in sorted(n.cone(p))]
    return EmbeddingTensor(n.name, p,
                           _bucket_pool(cone or [0.0], DEFAULT_WIDTH))


def design_signatures(n: Netlist, patterns: int = 4096,
                      seed: int = 0) -> list:
    """Signatures of every property of `n`, in property order, from one
    simulation of the whole design."""
    ratios = _gate_ratios(n, patterns, seed)
    return [_cone_signature(n, p, ratios) for p in range(n.num_properties)]


@dataclass(frozen=True)
class PcaModel:
    mean: tuple
    components: tuple  # rows, orthonormal, by decreasing eigenvalue
    explained_ratio: float

    @property
    def width(self) -> int:
        return len(self.mean)

    @property
    def num_components(self) -> int:
        return len(self.components)


def fit_pca(tensors) -> PcaModel:
    """Smallest component count reaching `PCA_RETENTION` cumulative
    variance."""
    if len(tensors) < 2:
        raise ValueError("need at least 2 tensors")
    width = len(tensors[0].values)
    for t in tensors:
        if len(t.values) != width:
            raise ValueError(f"tensor width {len(t.values)} != {width}")
    x = np.array([t.values for t in tensors], dtype=float)
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (len(tensors) - 1)
    total = float(np.trace(cov))
    if total <= 1e-30:
        # all tensors identical: one arbitrary component explains everything
        comp = np.zeros(width)
        comp[0] = 1.0
        return PcaModel(tuple(mean), (tuple(comp),), 1.0)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    cum = np.cumsum(evals) / evals.sum()
    keep = int(np.searchsorted(cum, PCA_RETENTION - 1e-12) + 1)
    comps = []
    for i in range(keep):
        c = evecs[:, i]
        # sign convention: largest-magnitude entry positive, for determinism
        j = int(np.argmax(np.abs(c)))
        if c[j] < 0:
            c = -c
        comps.append(tuple(c))
    return PcaModel(tuple(mean), tuple(comps), float(cum[keep - 1]))


def project_all(m: PcaModel, tensors) -> list:
    """Reduced vector (a tuple) of each tensor, by one matrix product."""
    for t in tensors:
        if len(t.values) != m.width:
            raise ValueError(
                f"tensor width {len(t.values)} != model width {m.width}")
    x = np.array([t.values for t in tensors], dtype=float)
    z = (x.reshape(len(tensors), m.width) - np.array(m.mean)) @ np.array(
        m.components).T
    return [tuple(row) for row in z.tolist()]


def project(m: PcaModel, t: EmbeddingTensor):
    return project_all(m, [t])[0]


def coi_signature(n: Netlist, p: int, patterns: int = 4096,
                  seed: int = 0) -> EmbeddingTensor:
    """Signature of property p, equal to `design_signatures(...)[p]`."""
    return _cone_signature(n, p, _gate_ratios(n, patterns, seed))
