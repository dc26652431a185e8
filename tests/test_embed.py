import random

import numpy as np
import pytest

from clusterbmc import embed, netlist
from clusterbmc.circuits import AigBuilder, parity_miter, random_netlist
from clusterbmc.netlist import restrict_to_coi
from oracles import pca_keep_count, pooled_ratios


def and_of_inputs():
    b = AigBuilder(num_inputs=2)
    b.add_bad(b.and_(b.input_lit(0), b.input_lit(1)))
    return b.build()


def or_of_inputs():
    b = AigBuilder(num_inputs=2)
    b.add_bad(b.or_(b.input_lit(0), b.input_lit(1)))
    return b.build()


def test_signature_determinism():
    n = and_of_inputs()
    a = embed.simulate_signature(n, patterns=512, seed=9)
    b = embed.simulate_signature(n, patterns=512, seed=9)
    assert a.values == b.values
    c = embed.simulate_signature(n, patterns=512, seed=10)
    assert a.values != c.values


def test_and_ratio_near_quarter(monkeypatch):
    monkeypatch.setattr(embed, "DEFAULT_WIDTH", 3)
    n = and_of_inputs()
    t = embed.simulate_signature(n, patterns=4096, seed=0)
    # entries: input0 ratio, input1 ratio, AND ratio (topological order)
    assert abs(t.values[2] - 0.25) < 0.02
    assert abs(t.values[0] - 0.5) < 0.03


def test_constant_cone_exact(monkeypatch):
    monkeypatch.setattr(embed, "DEFAULT_WIDTH", 1)
    b = AigBuilder(num_inputs=1)
    b.add_bad(0)  # constant-false property
    t = embed.simulate_signature(b.build(), patterns=64, seed=0)
    # the only gate is the free input; ratios stay within [0, 1]
    assert 0.0 <= t.values[0] <= 1.0


def test_signature_functional_sensitivity():
    sig_and = embed.simulate_signature(and_of_inputs(), patterns=1024, seed=3)
    sig_or = embed.simulate_signature(or_of_inputs(), patterns=1024, seed=3)
    assert sig_and.values != sig_or.values


def unpack(bits: int, patterns: int):
    """Bool array whose entry j is bit j of `bits`."""
    return np.array([(bits >> j) & 1 for j in range(patterns)], dtype=bool)


def test_design_signatures_equal_cone_simulations(monkeypatch):
    # one simulation of the whole design gives each property the signature
    # of its cone simulated alone on the cone's share of the same stimuli;
    # the reference evaluates numpy bool arrays, one entry per pattern
    for patterns in (1, 64, 65, 97, 1024):
        for trial in range(30):
            rng = random.Random(1400 + trial)
            n = random_netlist(rng, num_bads=4, name="r")
            if trial % 3 == 0:
                n = parity_miter(width=rng.randint(3, 9), copies=2, variants=3)
            width = rng.choice([4, 16, 128])
            monkeypatch.setattr(embed, "DEFAULT_WIDTH", width)
            sigs = embed.design_signatures(n, patterns=patterns, seed=trial)
            assert [t.property for t in sigs] == list(range(n.num_properties))
            draw = random.Random(trial)   # latches first, then inputs
            latch_vals = [unpack(draw.getrandbits(patterns), patterns)
                          for _ in range(n.num_latches)]
            input_vals = [unpack(draw.getrandbits(patterns), patterns)
                          for _ in range(n.num_inputs)]
            ni = n.num_inputs
            for p, sig in enumerate(sigs):
                cone = sorted(netlist._coi_vars(n, p)[0])
                want = pooled_ratios(
                    restrict_to_coi(n, p),
                    [latch_vals[v - ni - 1] for v in cone
                     if ni < v <= ni + n.num_latches],
                    [input_vals[v - 1] for v in cone if v <= ni],
                    patterns, width)
                assert sig.values == want, (patterns, trial, p)
                assert embed.coi_signature(n, p, patterns=patterns,
                                           seed=trial) == sig


def make_tensors(data):
    return [
        embed.EmbeddingTensor("d", i, tuple(row))
        for i, row in enumerate(data)
    ]


def test_width_invariant():
    # every tensor of a fit, and every tensor projected, has the model's width
    with pytest.raises(ValueError, match="tensor width 1 != 2"):
        embed.fit_pca(make_tensors([(1.0, 2.0), (3.0, 4.0), (5.0,)]))
    m = embed.fit_pca(make_tensors([(1.0, 2.0), (3.0, 5.0)]))
    with pytest.raises(ValueError, match="tensor width 3 != model width 2"):
        embed.project_all(m, make_tensors([(1.0, 2.0), (1.0, 2.0, 3.0)]))


def test_pca_rank1():
    data = [(i * 1.0, i * 2.0, i * 3.0) for i in range(6)]
    m = embed.fit_pca(make_tensors(data))
    assert m.num_components == 1
    assert m.explained_ratio == pytest.approx(1.0, abs=1e-9)
    # reconstruction error 0 for rank-1 data
    t = make_tensors(data)[3]
    z = embed.project(m, t)
    recon = np.array(m.mean) + sum(
        zi * np.array(c) for zi, c in zip(z, m.components)
    )
    assert np.allclose(recon, t.values, atol=1e-9)


def test_pca_matches_independent_eigensolver():
    rng = np.random.default_rng(11)
    for trial in range(10):
        data = rng.normal(size=(rng.integers(5, 30), rng.integers(3, 10)))
        m = embed.fit_pca(make_tensors(data))
        keep, ratio = pca_keep_count(data, 0.95)
        assert m.num_components == keep
        assert m.explained_ratio == pytest.approx(ratio, abs=1e-9)


def test_pca_components_orthonormal(monkeypatch):
    monkeypatch.setattr(embed, "PCA_RETENTION", 0.99)
    rng = np.random.default_rng(5)
    data = rng.normal(size=(20, 8))
    m = embed.fit_pca(make_tensors(data))
    c = np.array(m.components)
    assert np.allclose(c @ c.T, np.eye(len(c)), atol=1e-9)


def test_pca_identical_tensors():
    data = [(1.0, 2.0, 3.0)] * 4
    m = embed.fit_pca(make_tensors(data))
    assert m.num_components == 1 and m.explained_ratio == 1.0
    assert embed.project(m, make_tensors(data)[0]) == (0.0,)


def test_pca_too_few():
    with pytest.raises(ValueError, match="need at least 2 tensors"):
        embed.fit_pca(make_tensors([(1.0, 2.0)]))


def test_project_mean_is_zero():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(10, 5))
    m = embed.fit_pca(make_tensors(data))
    t = embed.EmbeddingTensor("d", 0, tuple(m.mean))
    assert all(abs(v) < 1e-9 for v in embed.project(m, t))


def test_projection_preserves_retained_distances(monkeypatch):
    monkeypatch.setattr(embed, "PCA_RETENTION", 1.0 - 1e-12)
    rng = np.random.default_rng(8)
    data = rng.normal(size=(30, 6))
    m = embed.fit_pca(make_tensors(data))
    ts = make_tensors(data)
    for i, j in [(0, 1), (2, 9), (5, 17)]:
        d_orig = np.linalg.norm(np.array(ts[i].values) - np.array(ts[j].values))
        zi, zj = np.array(embed.project(m, ts[i])), np.array(embed.project(m, ts[j]))
        assert np.linalg.norm(zi - zj) == pytest.approx(d_orig, abs=1e-6)
