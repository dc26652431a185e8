"""The three offline databases and the PCA sidecar.

All files are line-delimited text with an explicit schema-version header:

  db1.mpb   structural stats + per-property COI sizes and standalone verdicts
            design|ni,nl,na|propcount|ci,cl,ca,status,depth,elapsed;...
  db2.mpb   reduced property embeddings
            design|prop|v0,v1,...
  db3.mpb   influencing clusters + full gain record lists
            design|prop|m0 m1 ...|members:transition:value:degflag;...
  pca.mpb   sidecar: explained ratio, mean vector, one component per line

Floats are rendered with repr() so every round-trip is lossless.  Reads
validate invariants row by row and point at the offending line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .bmc import SAT, UNDET, UNSAT
from .gain import RANK, GainRecord

SCHEMA_VERSION = 1

DB1 = "db1"
DB2 = "db2"
DB3 = "db3"

FILENAMES = {DB1: "db1.mpb", DB2: "db2.mpb", DB3: "db3.mpb"}
PCA_FILENAME = "pca.mpb"


class CorruptRow(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaVersionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class PropertyEntry:
    coi_inputs: int
    coi_latches: int
    coi_ands: int
    status: str
    depth: int
    elapsed: float


@dataclass(frozen=True)
class DesignRecord:
    design: str
    num_inputs: int
    num_latches: int
    num_ands: int
    props: tuple  # PropertyEntry per property

    @property
    def property_count(self) -> int:
        return len(self.props)

    def feature_vector(self):
        """Structural features used for design-level similarity."""
        coi_sum = sum(p.coi_inputs + p.coi_latches + p.coi_ands for p in self.props)
        return (self.num_ands, self.num_latches, self.num_inputs, coi_sum)


@dataclass(frozen=True)
class EmbeddingRecord:
    design: str
    property: int
    vector: tuple


@dataclass(frozen=True)
class InfluenceRecord:
    design: str
    property: int
    influencing: frozenset
    gains: tuple  # GainRecord list across this property's clusters


class ReservedName(ValueError):
    pass


def check_name(s: str):
    """Raises ReservedName unless `s` can be stored as a design id."""
    if any(ch in s for ch in "|,;:\n") or not s:
        raise ReservedName(f"design id {s!r} contains reserved characters")


def _header(kind: str) -> str:
    return f"mpbdb {SCHEMA_VERSION} {kind}"


def read_text(path: str) -> str:
    """The text of a file, decoded as UTF-8; raises CorruptRow at the line
    of the first byte that is not."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorruptRow(data.count(b"\n", 0, e.start) + 1,
                         f"{path} is not UTF-8 text ({e.reason})") from None


def _read_lines(path: str, kind: str):
    lines = read_text(path).splitlines()
    if not lines:
        raise SchemaVersionMismatch(f"{path}: empty file")
    parts = lines[0].split()
    if len(parts) != 3 or parts[0] != "mpbdb":
        raise SchemaVersionMismatch(f"{path}: bad header {lines[0]!r}")
    if parts[1] != str(SCHEMA_VERSION):
        raise SchemaVersionMismatch(f"{path}: schema version {parts[1]}")
    if parts[2] != kind:
        raise SchemaVersionMismatch(f"{path}: kind {parts[2]!r}, expected {kind}")
    return lines[1:]


# -- DB1 ---------------------------------------------------------------------

def _write_db1(records, fh):
    for r in records:
        check_name(r.design)
        entries = ";".join(
            f"{p.coi_inputs},{p.coi_latches},{p.coi_ands},"
            f"{p.status},{p.depth},{p.elapsed!r}"
            for p in r.props
        )
        fh.write(
            f"{r.design}|{r.num_inputs},{r.num_latches},{r.num_ands}"
            f"|{len(r.props)}|{entries}\n"
        )


def _parse_db1_row(line: str, no: int) -> DesignRecord:
    try:
        design, dims, count_s, body = line.split("|")
        ni, nl, na = (int(x) for x in dims.split(","))
        count = int(count_s)
        props = []
        if body:
            for entry in body.split(";"):
                ci, cl, ca, status, depth, elapsed = entry.split(",")
                props.append(
                    PropertyEntry(int(ci), int(cl), int(ca), status,
                                  int(depth), float(elapsed))
                )
    except ValueError as e:
        raise CorruptRow(no, str(e)) from None
    if len(props) != count:
        raise CorruptRow(no, f"{len(props)} property entries, declared {count}")
    for p in props:
        if p.status not in (SAT, UNSAT, UNDET):
            raise CorruptRow(no, f"unknown status {p.status!r}")
        if p.depth < -1:
            raise CorruptRow(no, f"depth {p.depth} below -1")
        if not math.isfinite(p.elapsed):
            raise CorruptRow(no, f"elapsed {p.elapsed!r} is not finite")
    return DesignRecord(design, ni, nl, na, tuple(props))


# -- DB2 ---------------------------------------------------------------------

def _write_db2(records, fh):
    for r in records:
        check_name(r.design)
        fh.write(
            f"{r.design}|{r.property}|"
            + ",".join(repr(float(v)) for v in r.vector) + "\n"
        )


def _parse_db2_row(line: str, no: int) -> EmbeddingRecord:
    try:
        design, prop_s, body = line.split("|")
        vec = tuple(float(x) for x in body.split(",")) if body else ()
        return EmbeddingRecord(design, int(prop_s), vec)
    except ValueError as e:
        raise CorruptRow(no, str(e)) from None


# -- DB3 ---------------------------------------------------------------------

def _fmt_members(members) -> str:
    return " ".join(str(m) for m in sorted(members))


def _write_db3(records, fh):
    for r in records:
        check_name(r.design)
        if not r.gains:
            raise ValueError(f"{r.design} P{r.property}: empty gain list")
        if r.influencing not in [g.cluster for g in r.gains]:
            raise ValueError(
                f"{r.design} P{r.property}: influencing cluster not in gain list"
            )
        gains = ";".join(
            f"{_fmt_members(g.cluster)}:{g.transition}:{g.value!r}:"
            f"{int(g.degenerate)}"
            for g in r.gains
        )
        fh.write(f"{r.design}|{r.property}|{_fmt_members(r.influencing)}|{gains}\n")


def _parse_db3_row(line: str, no: int) -> InfluenceRecord:
    try:
        design, prop_s, inf_s, body = line.split("|")
        prop = int(prop_s)
        influencing = frozenset(int(x) for x in inf_s.split())
        gains = []
        for entry in body.split(";") if body else []:
            members_s, transition, value_s, deg_s = entry.split(":")
            members = frozenset(int(x) for x in members_s.split())
            value = float(value_s)
            gains.append(
                GainRecord(prop, members, transition, value, bool(int(deg_s)))
            )
    except ValueError as e:
        raise CorruptRow(no, str(e)) from None
    if not gains:
        raise CorruptRow(no, "empty gain list")
    for g in gains:
        if g.transition not in RANK:
            raise CorruptRow(no, f"unknown transition {g.transition!r}")
    if influencing not in [g.cluster for g in gains]:
        raise CorruptRow(no, "influencing cluster not in gain list")
    return InfluenceRecord(design, prop, influencing, tuple(gains))


# -- public API --------------------------------------------------------------

_WRITERS = {DB1: _write_db1, DB2: _write_db2, DB3: _write_db3}
_PARSERS = {DB1: _parse_db1_row, DB2: _parse_db2_row, DB3: _parse_db3_row}


def write_db(kind: str, records, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(kind) + "\n")
        _WRITERS[kind](records, fh)


def read_db(kind: str, path: str):
    rows = []
    for no, line in enumerate(_read_lines(path, kind), start=2):
        if not line:
            continue
        rows.append(_PARSERS[kind](line, no))
    if kind == DB2:
        widths = {len(r.vector) for r in rows}
        if len(widths) > 1:
            raise SchemaVersionMismatch(f"{path}: mixed vector widths {sorted(widths)}")
    return rows


def query_db1_by_property_count(db1_records, low: int, high: int):
    """Designs with property count strictly between `low` and `high`."""
    if low > high:
        raise ValueError("low must not exceed high")
    return [r.design for r in db1_records if low < r.property_count < high]


def write_pca(model, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header("pca") + "\n")
        fh.write(f"{model.explained_ratio!r}\n")
        fh.write(",".join(repr(float(v)) for v in model.mean) + "\n")
        for comp in model.components:
            fh.write(",".join(repr(float(v)) for v in comp) + "\n")


def read_pca(path: str):
    from .embed import PcaModel

    lines = _read_lines(path, "pca")
    if len(lines) < 3:
        raise SchemaVersionMismatch(f"{path}: truncated model")
    try:
        ratio = float(lines[0])
        mean = tuple(float(x) for x in lines[1].split(","))
        comps = tuple(
            tuple(float(x) for x in line.split(","))
            for line in lines[2:] if line
        )
    except ValueError as e:
        raise CorruptRow(2, str(e)) from None
    return PcaModel(mean, comps, ratio)


def db_paths(db_dir: str) -> dict:
    out = {k: os.path.join(db_dir, v) for k, v in FILENAMES.items()}
    out["pca"] = os.path.join(db_dir, PCA_FILENAME)
    return out
