import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterbmc import embed, gain, store
from clusterbmc.netlist import DataError


def random_db1(rng, count=10):
    recs = []
    for i in range(count):
        props = tuple(
            store.PropertyEntry(
                rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 99),
                rng.choice(["SAT", "UNDET"]),
                rng.randint(-1, 60), rng.random() * 500,
            )
            for _ in range(rng.randint(0, 6))
        )
        recs.append(store.DesignRecord(
            f"d{i:03d}", rng.randint(0, 8), rng.randint(0, 8),
            rng.randint(0, 200), props,
        ))
    return recs


def random_db3(rng, count=8):
    recs = []
    for i in range(count):
        gains = []
        for j in range(rng.randint(1, 4)):
            members = frozenset(rng.sample(range(8), rng.randint(2, 4)))
            tr = rng.choice(sorted(gain.RANK))
            val = rng.random() * 4 - 1
            gains.append(gain.GainRecord(i, members, tr, val,
                                         rng.random() < 0.2))
        recs.append(store.InfluenceRecord(f"d{i}", i, gains[0].cluster,
                                          tuple(gains)))
    return recs


def test_db1_roundtrip(tmp_path):
    for trial in range(30):
        rng = random.Random(trial)
        recs = random_db1(rng)
        path = str(tmp_path / f"db1_{trial}.mpb")
        store.write_db(store.DB1, recs, path)
        assert store.read_db(store.DB1, path) == recs


def test_db2_roundtrip(tmp_path):
    for trial in range(30):
        rng = random.Random(100 + trial)
        recs = [
            store.EmbeddingRecord(f"d{i}", j,
                                  tuple(rng.random() * 10 - 5 for _ in range(5)))
            for i in range(6) for j in range(rng.randint(1, 3))
        ]
        path = str(tmp_path / f"db2_{trial}.mpb")
        store.write_db(store.DB2, recs, path)
        assert store.read_db(store.DB2, path) == recs


def test_db3_roundtrip(tmp_path):
    for trial in range(30):
        rng = random.Random(200 + trial)
        recs = random_db3(rng)
        path = str(tmp_path / f"db3_{trial}.mpb")
        store.write_db(store.DB3, recs, path)
        assert store.read_db(store.DB3, path) == recs


def test_pca_roundtrip(tmp_path):
    rng = random.Random(7)
    for trial in range(10):
        ts = [
            embed.EmbeddingTensor("d", i, tuple(rng.random() for _ in range(4)))
            for i in range(6)
        ]
        m = embed.fit_pca(ts, 0.95)
        path = str(tmp_path / f"pca_{trial}.mpb")
        store.write_pca(m, path)
        assert store.read_pca(path) == m


def test_corrupt_row_line_number(tmp_path):
    recs = random_db1(random.Random(1), count=3)
    path = str(tmp_path / "db1.mpb")
    store.write_db(store.DB1, recs, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[2] = lines[2].replace("|", "!", 1)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="^line 3: "):
        store.read_db(store.DB1, path)


@pytest.mark.parametrize("kind, row, message", [
    (store.DB3, "d|0|0 1|0 1:BOGUS:0.5:0", "unknown transition 'BOGUS'"),
    (store.DB3, "d|0|0 1|0 1:UNDET_TO_UNSAT:0.5:0",
     "unknown transition 'UNDET_TO_UNSAT'"),
    (store.DB3, "d|0|0 1|0 1:UNSAT_TO_UNDET:0.5:0",
     "unknown transition 'UNSAT_TO_UNDET'"),
    (store.DB3, "d|0|0 1|", "empty gain list"),
    (store.DB3, "d|0|0 1|0 2:SAT_TO_SAT:0.5:0",
     "influencing cluster not in gain list"),
    (store.DB1, "d|1,1,4|1|1,1,4,MAYBE,3,9.0", "unknown status 'MAYBE'"),
    (store.DB1, "d|1,1,4|1|1,1,4,UNSAT,3,9.0", "unknown status 'UNSAT'"),
    (store.DB1, "d|1,1,4|1|1,1,4,UNDET,-7,9.0", "depth -7 below -1"),
    (store.DB1, "d|1,1,4|1|1,1,4,UNDET,2,nan", "elapsed nan is not finite"),
    # integer fields are ASCII digits, as AIGER numbers are: no sign (but
    # a depth's), no `_`, no other script's digits
    (store.DB1, "d|-5,1,4|1|1,1,4,SAT,3,9.0", "bad number '-5'"),
    (store.DB1, "d|1,\u0663,4|1|1,1,4,SAT,3,9.0", "bad number '\u0663'"),
    (store.DB1, "d|1,1,1_0|1|1,1,4,SAT,3,9.0", "bad number '1_0'"),
    (store.DB1, "d|1,1,4|+1|1,1,4,SAT,3,9.0", "bad number '+1'"),
    (store.DB1, "d|1,1,4|1|-40,1,4,SAT,3,9.0", "bad number '-40'"),
    (store.DB1, "d|1,1,4|1|1,1,4 ,SAT,3,9.0", "bad number '4 '"),
    (store.DB1, "d|1,1,4|1|1,1,4,SAT,\u0663,9.0", "bad number '\u0663'"),
    (store.DB3, "d|-1|0 1|0 1:SAT_TO_SAT:0.5:0", "bad number '-1'"),
    (store.DB3, "d|0|0 \u0661|0 1:SAT_TO_SAT:0.5:0", "bad number '\u0661'"),
    (store.DB3, "d|0|0 1|0 1_0:SAT_TO_SAT:0.5:0", "bad number '1_0'"),
    (store.DB3, "d|0|0 1|0 1:SAT_TO_SAT:nan:0", "gain nan is not finite"),
    (store.DB3, "d|0|0 1|0 1:SAT_TO_SAT:-inf:0", "gain -inf is not finite"),
    (store.DB3, "d|0|0 1|0 1:SAT_TO_SAT:0.5:\u0663",
     "bad degenerate flag '\u0663'"),
], ids=["db3-transition", "db3-unsat-target", "db3-unsat-source",
        "db3-no-gains", "db3-influencing-not-listed", "db1-status",
        "db1-unsat", "db1-depth", "db1-elapsed", "db1-dims-sign",
        "db1-dims-arabic", "db1-dims-underscore", "db1-count-sign",
        "db1-coi-sign", "db1-coi-space", "db1-depth-arabic",
        "db3-property-sign", "db3-influencing-arabic",
        "db3-members-underscore", "db3-gain-nan", "db3-gain-inf",
        "db3-flag-arabic"])
def test_reader_rejects_rows_no_writer_produces(tmp_path, kind, row,
                                                message):
    path = tmp_path / "db.mpb"
    path.write_text(f"mpbdb 1 {kind}\n{row}\n", encoding="utf-8")
    with pytest.raises(DataError, match="^line 2: ") as exc:
        store.read_db(kind, str(path))
    assert message in str(exc.value)


def test_db3_invariant_rejected(tmp_path):
    g = gain.GainRecord(0, frozenset({0, 1}), gain.SAT_TO_SAT, 0.5)
    bad = store.InfluenceRecord("d", 0, frozenset({0, 9}), (g,))
    with pytest.raises(ValueError):
        store.write_db(store.DB3, [bad], str(tmp_path / "db3.mpb"))


def test_schema_version_mismatch(tmp_path):
    path = tmp_path / "db1.mpb"
    path.write_text("mpbdb 99 db1\n")
    with pytest.raises(DataError, match="schema version 99"):
        store.read_db(store.DB1, str(path))
    path.write_text("mpbdb 1 db2\n")
    with pytest.raises(DataError, match="kind 'db2', expected db1"):
        store.read_db(store.DB1, str(path))


def test_db2_mixed_widths(tmp_path):
    path = str(tmp_path / "db2.mpb")
    recs = [store.EmbeddingRecord("a", 0, (1.0, 2.0)),
            store.EmbeddingRecord("b", 0, (1.0, 2.0, 3.0))]
    store.write_db(store.DB2, recs, path)
    with pytest.raises(DataError, match=r"mixed vector widths \[2, 3\]"):
        store.read_db(store.DB2, path)


def test_query_strict_bounds():
    rng = random.Random(3)
    recs = random_db1(rng, count=40)
    for low, high in [(7, 13), (0, 3), (2, 2), (5, 6)]:
        got = store.query_db1_by_property_count(recs, low, high)
        want = [r for r in recs if low < r.property_count < high]
        assert got == want
    with pytest.raises(ValueError):
        store.query_db1_by_property_count(recs, 5, 2)


def test_query_delta_zero_is_empty():
    recs = random_db1(random.Random(4), count=10)
    p = recs[0].property_count
    assert store.query_db1_by_property_count(recs, p, p) == []


def test_reads_are_repeatable(tmp_path):
    recs = random_db1(random.Random(5))
    path = str(tmp_path / "db1.mpb")
    store.write_db(store.DB1, recs, path)
    assert store.read_db(store.DB1, path) == store.read_db(store.DB1, path)


def write_real(kind, path):
    """A small database or PCA file as `offline` writes it."""
    rng = random.Random(11)
    if kind == "pca":
        ts = [embed.EmbeddingTensor("d", i, (rng.random(), 1.0, i / 4))
              for i in range(5)]
        store.write_pca(embed.fit_pca(ts, 0.95), path)
    elif kind == store.DB2:
        store.write_db(kind, [store.EmbeddingRecord(f"d{i}", i, (0.5, -1.25))
                              for i in range(3)], path)
    else:
        recs = random_db1(rng, 3) if kind == store.DB1 else random_db3(rng, 3)
        store.write_db(kind, recs, path)


# ASCII edits keep a file UTF-8 (raw bytes cover the rest); the bytes that
# separate or form the fields of a row are drawn more often
EDIT_BYTES = (st.integers(0, 127)
              | st.sampled_from(list(b"|,;: \n-.0123456789einfa")))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(kind=st.sampled_from([store.DB1, store.DB2, store.DB3, "pca"]),
       raw=st.none() | st.binary(max_size=96),
       edits=st.lists(st.tuples(st.integers(0, 1 << 16), EDIT_BYTES),
                      max_size=6),
       cut=st.none() | st.integers(0, 1 << 16))
def test_readers_raise_only_store_errors(tmp_path_factory, kind, raw, edits,
                                         cut):
    # arbitrary bytes and byte-edited real files either read or raise the
    # store's own errors
    path = tmp_path_factory.getbasetemp() / f"fuzz_{kind}.mpb"
    if raw is None:
        write_real(kind, str(path))
        data = bytearray(path.read_bytes())
        for pos, byte in edits:
            data[pos % len(data)] = byte
        if cut is not None:
            data = data[:cut % (len(data) + 1)]
        raw = bytes(data)
    path.write_bytes(raw)
    try:
        if kind == "pca":
            store.read_pca(str(path))
        else:
            store.read_db(kind, str(path))
    except DataError:
        pass
