"""The three offline databases and the PCA sidecar.

All files are line-delimited text with an explicit schema-version header:

  db1.mpb   structural stats + per-property COI sizes and standalone verdicts
            design|ni,nl,na|propcount|ci,cl,ca,status,depth,elapsed;...
  db2.mpb   reduced property embeddings, one `embed.EmbeddingTensor` a row
            design|prop|v0,v1,...
  db3.mpb   influencing clusters + full gain record lists
            design|prop|m0 m1 ...|members:transition:value:degflag;...
  pca.mpb   sidecar: explained ratio, mean vector, one component per line

Floats are rendered with repr() so every round-trip is lossless.  Reads
validate invariants row by row and point at the offending line.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

from .bmc import SAT, UNDET
from .embed import EmbeddingTensor, PcaModel
from .gain import RANK, GainRecord
from .netlist import DataError, parse_nat

SCHEMA_VERSION = 1

DB1 = "db1"
DB2 = "db2"
DB3 = "db3"

FILENAMES = {DB1: "db1.mpb", DB2: "db2.mpb", DB3: "db3.mpb"}
PCA_FILENAME = "pca.mpb"


def _corrupt(line_no: int, message: str) -> DataError:
    """The error for a row of a database file that cannot be read."""
    return DataError(f"line {line_no}: {message}")


def _depth(tok: str) -> int:
    """A depth: a number as `parse_nat` reads it, or one with a minus
    sign."""
    return -parse_nat(tok[1:]) if tok.startswith("-") else parse_nat(tok)


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
class InfluenceRecord:
    design: str
    property: int
    influencing: frozenset
    gains: tuple  # GainRecord list across this property's clusters


def check_name(s: str):
    """Raises DataError unless `s` can be stored as a design id: one
    non-empty line, as `str.splitlines` splits the files it is stored in,
    without a field separator."""
    if s.splitlines() != [s] or any(ch in s for ch in "|,;:"):
        raise DataError(f"design id {s!r} contains reserved characters")


def _header(kind: str) -> str:
    return f"mpbdb {SCHEMA_VERSION} {kind}"


def read_text(path: str) -> str:
    """The text of a file, decoded as UTF-8; raises DataError when it
    cannot be read, naming the line of the first byte that is not
    UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _corrupt(data.count(b"\n", 0, e.start) + 1,
                       f"{path} is not UTF-8 text ({e.reason})") from None


def write_text(path: str, text: str):
    """Writes `text` to a file as UTF-8; raises DataError when it
    cannot."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from None


def remove_file(path: str):
    """Removes the file at `path` if there is one; raises DataError when
    it cannot, as no file could then be written there either."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from None


def _read_lines(path: str, kind: str):
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    parts = lines[0].split()
    if len(parts) != 3 or parts[0] != "mpbdb":
        raise DataError(f"{path}: bad header {lines[0]!r}")
    if parts[1] != str(SCHEMA_VERSION):
        raise DataError(f"{path}: schema version {parts[1]}")
    if parts[2] != kind:
        raise DataError(f"{path}: kind {parts[2]!r}, expected {kind}")
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
        ni, nl, na = (parse_nat(x) for x in dims.split(","))
        count = parse_nat(count_s)
        props = []
        if body:
            for entry in body.split(";"):
                ci, cl, ca, status, depth, elapsed = entry.split(",")
                props.append(PropertyEntry(
                    parse_nat(ci), parse_nat(cl), parse_nat(ca), status,
                    _depth(depth), float(elapsed)))
    except ValueError as e:
        raise _corrupt(no, str(e)) from None
    if len(props) != count:
        raise _corrupt(no, f"{len(props)} property entries, declared {count}")
    for p in props:
        if p.status not in (SAT, UNDET):
            raise _corrupt(no, f"unknown status {p.status!r}")
        if p.depth < -1:
            raise _corrupt(no, f"depth {p.depth} below -1")
        if not math.isfinite(p.elapsed):
            raise _corrupt(no, f"elapsed {p.elapsed!r} is not finite")
    return DesignRecord(design, ni, nl, na, tuple(props))


# -- DB2 ---------------------------------------------------------------------

def _write_db2(records, fh):
    for r in records:
        check_name(r.design)
        fh.write(
            f"{r.design}|{r.property}|"
            + ",".join(repr(float(v)) for v in r.values) + "\n"
        )


def _parse_db2_row(line: str, no: int) -> EmbeddingTensor:
    try:
        design, prop_s, body = line.split("|")
        vec = tuple(float(x) for x in body.split(",")) if body else ()
        return EmbeddingTensor(design, parse_nat(prop_s), vec)
    except ValueError as e:
        raise _corrupt(no, str(e)) from None


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
        prop = parse_nat(prop_s)
        influencing = frozenset(parse_nat(x) for x in inf_s.split())
        gains = []
        for entry in body.split(";") if body else []:
            members_s, transition, value_s, deg_s = entry.split(":")
            members = frozenset(parse_nat(x) for x in members_s.split())
            value = float(value_s)
            if deg_s not in ("0", "1"):
                raise ValueError(f"bad degenerate flag {deg_s!r}")
            gains.append(
                GainRecord(members, transition, value, deg_s == "1")
            )
    except ValueError as e:
        raise _corrupt(no, str(e)) from None
    if not gains:
        raise _corrupt(no, "empty gain list")
    for g in gains:
        if g.transition not in RANK:
            raise _corrupt(no, f"unknown transition {g.transition!r}")
        if not math.isfinite(g.value):
            raise _corrupt(no, f"gain {g.value!r} is not finite")
    if influencing not in [g.cluster for g in gains]:
        raise _corrupt(no, "influencing cluster not in gain list")
    return InfluenceRecord(design, prop, influencing, tuple(gains))


# -- public API --------------------------------------------------------------

_WRITERS = {DB1: _write_db1, DB2: _write_db2, DB3: _write_db3}
_PARSERS = {DB1: _parse_db1_row, DB2: _parse_db2_row, DB3: _parse_db3_row}


def write_db(kind: str, records, path: str):
    fh = io.StringIO()
    fh.write(_header(kind) + "\n")
    _WRITERS[kind](records, fh)
    write_text(path, fh.getvalue())


def read_db(kind: str, path: str):
    rows = []
    for no, line in enumerate(_read_lines(path, kind), start=2):
        if not line:
            continue
        rows.append(_PARSERS[kind](line, no))
    if kind == DB2:
        widths = {len(r.values) for r in rows}
        if len(widths) > 1:
            raise DataError(f"{path}: mixed vector widths {sorted(widths)}")
    return rows


def write_pca(model, path: str):
    rows = [_header("pca"), repr(model.explained_ratio)]
    rows += [",".join(repr(float(v)) for v in vec)
             for vec in (model.mean, *model.components)]
    write_text(path, "".join(row + "\n" for row in rows))


def read_pca(path: str):
    lines = _read_lines(path, "pca")
    if len(lines) < 3:
        raise DataError(f"{path}: truncated model")
    try:
        ratio = float(lines[0])
        mean = tuple(float(x) for x in lines[1].split(","))
        comps = tuple(
            tuple(float(x) for x in line.split(","))
            for line in lines[2:] if line
        )
    except ValueError as e:
        raise _corrupt(2, str(e)) from None
    return PcaModel(mean, comps, ratio)


def db_paths(db_dir: str) -> dict:
    out = {k: os.path.join(db_dir, v) for k, v in FILENAMES.items()}
    out["pca"] = os.path.join(db_dir, PCA_FILENAME)
    return out
