"""Functional property embeddings and their PCA reduction.

The built-in provider simulates the property cone on one inductive frame
with random stimuli and records per-gate logic-1 ratios, pooled to a fixed
width by bucketed averaging in topological order.  Externally produced
tensors (e.g. from a learned model) can be imported through a small text
interchange format instead.

PCA is fit once per database build from the LAPACK symmetric eigensolver
(`numpy.linalg.eigh`); the covariance uses 1/(n-1) normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netlist import Netlist

DEFAULT_WIDTH = 128

PROVIDER_SIM = "simulation"
PROVIDER_IMPORTED = "imported"


class MalformedTensorFile(ValueError):
    pass


class WidthMismatch(ValueError):
    pass


class DegenerateCovariance(ValueError):
    """Fewer than two tensors; nothing to decompose."""


@dataclass(frozen=True)
class EmbeddingTensor:
    design: str
    property: int
    width: int
    values: tuple
    provider: str = PROVIDER_SIM

    def __post_init__(self):
        if len(self.values) != self.width:
            raise WidthMismatch(
                f"{len(self.values)} values for declared width {self.width}"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("non-finite embedding value")


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


def simulate_signature(
    coi: Netlist,
    patterns: int = 4096,
    seed: int = 0,
    width: int = DEFAULT_WIDTH,
    design: str = "",
    property_index: int = 0,
) -> EmbeddingTensor:
    """Per-gate logic-1 ratios under random stimuli, pooled to `width`.

    The cone is evaluated on a single inductive frame, so frame-0 latches
    are free variables just like the inputs.  Deterministic for fixed seed.
    """
    if patterns < 1:
        raise ValueError("patterns must be >= 1")
    rng = np.random.default_rng(seed)
    latch_vals = [rng.random(patterns) < 0.5 for _ in range(coi.num_latches)]
    input_vals = [rng.random(patterns) < 0.5 for _ in range(coi.num_inputs)]
    values, _, _ = coi.eval_frame(latch_vals, input_vals)
    ratios = []
    for var in range(1, coi.max_var + 1):
        v = values[var]
        if isinstance(v, (bool, np.bool_)):
            ratios.append(1.0 if v else 0.0)
        else:
            ratios.append(float(np.count_nonzero(v)) / patterns)
    if not ratios:
        ratios = [0.0]
    return EmbeddingTensor(
        design=design,
        property=property_index,
        width=width,
        values=_bucket_pool(ratios, width),
        provider=PROVIDER_SIM,
    )


def export_tensor(t: EmbeddingTensor, path: str):
    """Two-line interchange file: `design,property,width` then the values."""
    with open(path, "w") as fh:
        fh.write(f"{t.design},{t.property},{t.width}\n")
        fh.write(",".join(repr(float(v)) for v in t.values) + "\n")


def import_tensor(path: str) -> EmbeddingTensor:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as e:
        raise MalformedTensorFile(f"{path}: {e}") from None
    if len(lines) < 2:
        raise MalformedTensorFile(f"{path}: expected header and value lines")
    head = lines[0].split(",")
    if len(head) != 3:
        raise MalformedTensorFile(f"{path}: bad header {lines[0]!r}")
    design, prop_s, width_s = head
    try:
        prop, width = int(prop_s), int(width_s)
        vals = tuple(float(x) for x in lines[1].split(","))
    except ValueError as e:
        raise MalformedTensorFile(f"{path}: {e}") from None
    if len(vals) != width:
        raise MalformedTensorFile(
            f"{path}: {len(vals)} values for declared width {width}"
        )
    if not all(math.isfinite(v) for v in vals):
        raise MalformedTensorFile(f"{path}: non-finite value")
    return EmbeddingTensor(design, prop, width, vals, PROVIDER_IMPORTED)


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


def fit_pca(tensors, threshold: float = 0.95) -> PcaModel:
    """Smallest component count reaching `threshold` cumulative variance."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if len(tensors) < 2:
        raise DegenerateCovariance("need at least 2 tensors")
    width = tensors[0].width
    for t in tensors:
        if t.width != width:
            raise WidthMismatch(f"tensor width {t.width} != {width}")
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
    keep = int(np.searchsorted(cum, threshold - 1e-12) + 1)
    comps = []
    for i in range(keep):
        c = evecs[:, i]
        # sign convention: largest-magnitude entry positive, for determinism
        j = int(np.argmax(np.abs(c)))
        if c[j] < 0:
            c = -c
        comps.append(tuple(c))
    return PcaModel(tuple(mean), tuple(comps), float(cum[keep - 1]))


def project(m: PcaModel, t: EmbeddingTensor):
    if t.width != m.width:
        raise WidthMismatch(f"tensor width {t.width} != model width {m.width}")
    centered = np.array(t.values, dtype=float) - np.array(m.mean)
    return tuple(float(np.dot(centered, c)) for c in m.components)


def coi_signature(n: Netlist, p: int, patterns: int = 4096, seed: int = 0,
                  width: int = DEFAULT_WIDTH, design: str = "") -> EmbeddingTensor:
    """Signature of property p's cone, extracted from the full netlist."""
    from .netlist import restrict_to_coi

    return simulate_signature(
        restrict_to_coi(n, p),
        patterns=patterns,
        seed=seed,
        width=width,
        design=design or n.name,
        property_index=p,
    )
