"""Canonical sparse/dense matrix types and file ingestion.

Triplets keep int64 ``rows``/``cols`` and float64 ``vals`` arrays; CSC keeps
(value, row_idx, col_ptr); CSR keeps (value, col_idx, row_ptr).  A Matrix
Market body is parsed in one numpy pass; a line loop reads it again wherever
that pass cannot vouch for the result, and only the loop raises, naming the
faulty line.  ``dense_matmul`` is the brute-force reference product every
sparse path is verified against.  A stored entry counts as nonzero even when its value is
exactly 0.0 (duplicates that cancel stay stored, which keeps nnz conservation
checks exact).
"""

from __future__ import annotations

import io
import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BoundsError, CoordinateError, DimensionError, MatrixFormatError

Entry = tuple[int, int, float]


class TripletMatrix:
    """Explicit coordinates, from (row, col, value) tuples or ``arrays=(rows,
    cols, vals)``; ``entries`` reads the tuples back.  Canonical (see
    :func:`canonicalize`) means unique coordinates sorted by (row, col)."""

    __slots__ = ("n_rows", "n_cols", "rows", "cols", "vals")

    def __init__(self, n_rows: int, n_cols: int, entries: Iterable[Entry] = (),
                 arrays: tuple | None = None):
        if arrays is None:
            entries = entries if isinstance(entries, (list, tuple)) else list(entries)
            flat = np.fromiter(itertools.chain.from_iterable(entries), np.float64)
            if len(flat) != 3 * len(entries):
                raise MatrixFormatError("entries must be (row, col, value) triples")
            arrays = flat[0::3], flat[1::3], flat[2::3]
        rows, cols = np.asarray(arrays[0]), np.asarray(arrays[1])
        vals = np.asarray(arrays[2], dtype=np.float64)
        if not len(rows) == len(cols) == len(vals):
            raise MatrixFormatError("rows, cols and vals lengths differ")
        whole = (rows == np.trunc(rows)) & (cols == np.trunc(cols))  # not NaN
        inside = (rows >= 0) & (rows < n_rows) & (cols >= 0) & (cols < n_cols)
        bad = np.flatnonzero(~(whole & inside))
        if len(bad):  # name the first bad entry as it was given
            i = bad[0]
            r, c = entries[i][:2] if len(entries) else (rows[i], cols[i])
            if not whole[i]:
                raise CoordinateError(f"entry ({r},{c}) has a non-integer coordinate")
            raise BoundsError(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
        self.n_rows, self.n_cols, self.vals = n_rows, n_cols, vals
        self.rows, self.cols = rows.astype(np.int64), cols.astype(np.int64)

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def entries(self) -> list[Entry]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()))

    def __eq__(self, other):
        if not isinstance(other, TripletMatrix):
            return NotImplemented
        return ((self.n_rows, self.n_cols) == (other.n_rows, other.n_cols)
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.vals, other.vals))

    def __repr__(self) -> str:
        return f"TripletMatrix({self.n_rows}, {self.n_cols}, {self.entries!r})"


def coordinate_runs(rows, cols, vals):
    """Stable-sort triplets by (row, col); return them and each run's start."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    change = np.ones(len(rows), dtype=bool)
    change[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return rows, cols, vals, np.flatnonzero(change)


@dataclass(frozen=True)
class CscMatrix:
    """Compressed sparse column: value/row_idx per entry, col_ptr per column."""

    n_rows: int
    n_cols: int
    value: np.ndarray
    row_idx: np.ndarray
    col_ptr: np.ndarray

    def __post_init__(self):
        if len(self.value) != len(self.row_idx):
            raise MatrixFormatError("value and row_idx lengths differ")
        if len(self.col_ptr) != self.n_cols + 1:
            raise MatrixFormatError("col_ptr must have n_cols+1 offsets")
        if self.col_ptr[0] != 0 or self.col_ptr[-1] != len(self.value):
            raise MatrixFormatError("col_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.col_ptr) < 0):
            raise MatrixFormatError("col_ptr must be non-decreasing")

    @property
    def nnz(self) -> int:
        return len(self.value)

    def nnz_per_column(self) -> np.ndarray:
        return np.diff(self.col_ptr)


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse row: value/col_idx per entry, row_ptr per row."""

    n_rows: int
    n_cols: int
    value: np.ndarray
    col_idx: np.ndarray
    row_ptr: np.ndarray

    def __post_init__(self):
        if len(self.value) != len(self.col_idx):
            raise MatrixFormatError("value and col_idx lengths differ")
        if len(self.row_ptr) != self.n_rows + 1:
            raise MatrixFormatError("row_ptr must have n_rows+1 offsets")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.value):
            raise MatrixFormatError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise MatrixFormatError("row_ptr must be non-decreasing")

    @property
    def nnz(self) -> int:
        return len(self.value)

    def nnz_per_row(self) -> np.ndarray:
        return np.diff(self.row_ptr)


@dataclass(frozen=True)
class DenseMatrix:
    """Row-major float64 matrix; the oracle-side representation."""

    n_rows: int
    n_cols: int
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.n_rows, self.n_cols):
            raise DimensionError(
                f"data shape {self.data.shape} != ({self.n_rows},{self.n_cols})")

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "DenseMatrix":
        return cls(n_rows, n_cols, np.zeros((n_rows, n_cols)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "DenseMatrix":
        data = np.asarray(rows, dtype=np.float64)
        if data.ndim != 2:
            data = data.reshape(len(rows), -1)
        return cls(data.shape[0], data.shape[1], data)


AnySparse = Union[TripletMatrix, CscMatrix, CsrMatrix]


def canonicalize(n_rows: int, n_cols: int, entries: Iterable[Entry] = (),
                 arrays: tuple | None = None) -> TripletMatrix:
    """Sort by (row, col); sum each coordinate's values as a left fold in input
    order (-0.0 + v is v, so a fold starts at its first value).  Takes entries
    (checked as given) or ``arrays=(rows, cols, vals)`` (checked once sorted)."""
    if arrays is None:
        t = TripletMatrix(n_rows, n_cols, entries)
        arrays = t.rows, t.cols, t.vals
    rows, cols, vals, starts = coordinate_runs(*(np.asarray(a) for a in arrays))
    out, run = vals[starts].astype(np.float64), np.arange(len(starts))
    length = np.diff(starts, append=len(vals))
    for j in range(1, int(length.max(initial=1))):  # the runs still open
        run = run[length[run] > j]
        out[run] += vals[starts[run] + j]
    return TripletMatrix(n_rows, n_cols, arrays=(rows[starts], cols[starts], out))


def _read_text(source) -> str:
    """The whole text of a path, a text stream or ASCII bytes."""
    if isinstance(source, bytes):
        return source.decode("ascii")
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="ascii") as f:
            return f.read()
    return source.read()


def load_matrix_market(source) -> TripletMatrix:
    """Parse Matrix Market coordinate format into a canonical TripletMatrix.

    Accepts a path, text stream, or bytes.  Handles real/integer/pattern
    fields and general/symmetric symmetry; symmetric inputs are expanded to
    full general form.  Pattern entries get value 1.0.  Indices are 1-based
    on disk and converted to 0-based; duplicate coordinates are summed.  Past
    the size header's entry count only blank and ``%`` lines may follow.
    """
    return _parse_mm(_read_text(source))


def _parse_mm(text: str) -> TripletMatrix:
    lines = text.split("\n")  # lines[i] is line i + 1
    eof = len(lines) + (lines[-1] != "")  # the line number at the end of text
    parts = lines[0].split()
    if len(parts) < 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
        raise MatrixFormatError("line 1: bad MatrixMarket banner")
    layout, fieldkind, symmetry = (p.lower() for p in parts[2:5])
    if layout != "coordinate":
        raise MatrixFormatError("line 1: only coordinate layout supported")
    if fieldkind not in ("real", "integer", "pattern"):
        raise MatrixFormatError(f"line 1: unsupported field '{fieldkind}'")
    if symmetry not in ("general", "symmetric"):
        raise MatrixFormatError(f"line 1: unsupported symmetry '{symmetry}'")

    data = ((i, tokens) for i, line in enumerate(lines[1:], 2)
            if (tokens := line.split()) and tokens[0][0] != "%")
    lineno, tokens = next(data, (eof, None))  # the size header
    if tokens is None:
        raise MatrixFormatError(f"line {lineno}: missing size header")
    if len(tokens) != 3:
        raise MatrixFormatError(f"line {lineno}: size header needs 'rows cols nnz'")
    try:
        n_rows, n_cols, nnz = (int(t) for t in tokens)
    except ValueError:
        raise MatrixFormatError(f"line {lineno}: non-integer size header") from None
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise MatrixFormatError(f"line {lineno}: negative size header")

    body = text[sum(map(len, lines[:lineno])) + lineno:]  # past the size header
    pattern = fieldkind == "pattern"
    entries = _bulk_entries(body, pattern, nnz, n_rows, n_cols)
    if entries is None:
        entries = _line_entries(data, pattern, nnz, n_rows, n_cols, eof)
    if symmetry == "symmetric":
        entries = _mirror(*entries)
    return canonicalize(n_rows, n_cols, arrays=entries)


_ENTRY_ROW = np.dtype([("r", np.int64), ("c", np.int64), ("v", np.float64)])
_PATTERN_ROW = np.dtype([("r", np.int64), ("c", np.int64)])


def _bulk_entries(body: str, pattern: bool, nnz: int, n_rows: int, n_cols: int):
    """0-based (rows, cols, vals) of every entry line in one numpy pass, or
    None unless that pass provably reads what :func:`_line_entries` would.

    numpy splits a line on the same whitespace as ``str.split`` and reads
    ``int``/``float`` tokens as Python does, but rejects a few that Python
    takes (``1_0``, extra tokens), so any conversion error, a ``%`` line, a
    row count other than ``nnz`` or an index out of range is left to the line
    loop, which accepts or names the faulty line.
    """
    if "%" in body:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body warns
            table = np.loadtxt(io.StringIO(body), comments=None, ndmin=1,
                               dtype=_PATTERN_ROW if pattern else _ENTRY_ROW)
    except (ValueError, Warning):
        return None
    rows, cols = table["r"], table["c"]
    if len(table) != nnz or not np.all((rows >= 1) & (rows <= n_rows)
                                       & (cols >= 1) & (cols <= n_cols)):
        return None
    vals = np.ones(nnz) if pattern else table["v"]
    return rows - 1, cols - 1, vals


def _line_entries(data, pattern: bool, nnz: int, n_rows: int, n_cols: int,
                  eof: int):
    """0-based (rows, cols, vals) read one entry line at a time from ``data``,
    the (line number, tokens) of each non-blank, non-``%`` line past the size
    header; every error names its line."""
    coords: list[int] = []  # row, column of each entry in file order
    vals: list[float] = []
    for lineno, tokens in data:
        if len(vals) == nnz:
            raise MatrixFormatError(
                f"line {lineno}: more entries than the {nnz} the size header declares")
        try:
            r, c = int(tokens[0]), int(tokens[1])
        except (ValueError, IndexError):
            raise MatrixFormatError(f"line {lineno}: bad coordinate entry") from None
        try:
            v = 1.0 if pattern else float(tokens[2])
        except IndexError:
            raise MatrixFormatError(f"line {lineno}: missing value") from None
        except ValueError:
            raise MatrixFormatError(f"line {lineno}: bad value") from None
        if not (1 <= r <= n_rows and 1 <= c <= n_cols):
            raise BoundsError(
                f"line {lineno}: index ({r},{c}) outside {n_rows}x{n_cols}")
        coords += (r - 1, c - 1)
        vals.append(v)
    if len(vals) < nnz:
        raise MatrixFormatError(
            f"line {eof}: expected {nnz} entries, got {len(vals)}")
    rc = np.array(coords, dtype=np.int64).reshape(-1, 2)
    return rc[:, 0], rc[:, 1], np.array(vals, dtype=np.float64)


def _mirror(rows, cols, vals):
    """Symmetric entries in full: each off-diagonal entry followed by its
    transpose, so duplicates still fold in file order."""
    keep = np.ones((len(rows), 2), dtype=bool)
    keep[:, 1] = rows != cols
    keep = keep.ravel()
    return (np.column_stack((rows, cols)).ravel()[keep],
            np.column_stack((cols, rows)).ravel()[keep], np.repeat(vals, 2)[keep])


def write_matrix_market(m: AnySparse, path) -> None:
    """Write coordinate real general Matrix Market; values round-trip exactly.
    A TripletMatrix is written as stored, CSC and CSR canonical."""
    t = m if isinstance(m, TripletMatrix) else \
        canonicalize(m.n_rows, m.n_cols, arrays=_coords(m))
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{t.n_rows} {t.n_cols} {t.nnz}\n")
        f.write("".join([f"{r} {c} {v!r}\n" for r, c, v in zip(
            (t.rows + 1).tolist(), (t.cols + 1).tolist(), t.vals.tolist())]))


def _coords(m: AnySparse) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stored entry's row, column and value, in storage order."""
    if isinstance(m, TripletMatrix):
        return m.rows, m.cols, m.vals
    if isinstance(m, CscMatrix):
        return (m.row_idx, np.repeat(np.arange(m.n_cols), np.diff(m.col_ptr)),
                m.value)
    return np.repeat(np.arange(m.n_rows), np.diff(m.row_ptr)), m.col_idx, m.value


def _compress(major, minor, vals, n_major: int):
    """Stable sort by (major, minor): (values, minor indices, major offsets)."""
    order = np.lexsort((minor, major))
    ptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(np.bincount(major, minlength=n_major), out=ptr[1:])
    return vals[order], minor[order], ptr


def to_csc(t: TripletMatrix) -> CscMatrix:
    """Lossless conversion of a canonical triplet set to CSC."""
    return CscMatrix(t.n_rows, t.n_cols, *_compress(t.cols, t.rows, t.vals, t.n_cols))


def to_csr(t: TripletMatrix) -> CsrMatrix:
    """Lossless conversion of a canonical triplet set to CSR."""
    return CsrMatrix(t.n_rows, t.n_cols, *_compress(t.rows, t.cols, t.vals, t.n_rows))


def to_triplets(m: Union[CscMatrix, CsrMatrix, DenseMatrix]) -> TripletMatrix:
    if not isinstance(m, DenseMatrix):
        return canonicalize(m.n_rows, m.n_cols, arrays=_coords(m))
    rr, cc = np.nonzero(m.data)
    return TripletMatrix(m.n_rows, m.n_cols, arrays=(rr, cc, m.data[rr, cc]))


def to_dense(m: Union[AnySparse, DenseMatrix]) -> DenseMatrix:
    """Scatter stored entries onto a zero matrix; the last write wins."""
    if isinstance(m, DenseMatrix):
        return m
    rows, cols, vals = _coords(m)
    _, last = np.unique((rows * m.n_cols + cols)[::-1], return_index=True)
    keep = len(rows) - 1 - last
    out = np.zeros((m.n_rows, m.n_cols))
    out[rows[keep], cols[keep]] = vals[keep]
    return DenseMatrix(m.n_rows, m.n_cols, out)


def dense_matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Ground-truth dense product C[i,j] = sum_x a[i,x]*b[x,j]."""
    if a.n_cols != b.n_rows:
        raise DimensionError(
            f"dimension mismatch: {a.n_rows}x{a.n_cols} @ {b.n_rows}x{b.n_cols}")
    return DenseMatrix(a.n_rows, b.n_cols, a.data @ b.data)


def write_dense_csv(m: DenseMatrix, path) -> None:
    """One row per line, comma-separated, exact decimal text."""
    with open(path, "w", encoding="ascii") as f:
        for row in m.data.astype(np.float64, copy=False).tolist():
            f.write(",".join(map(repr, row)) + "\n")


def load_dense_csv(source) -> DenseMatrix:
    rows = []
    for i, line in enumerate(_read_text(source).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = [float(t) for t in line.split(",")]
        except ValueError:
            raise MatrixFormatError(f"line {i}: bad CSV number") from None
        if rows and len(row) != len(rows[0]):
            raise MatrixFormatError(f"line {i}: ragged CSV row")
        rows.append(row)
    if not rows:
        raise MatrixFormatError("line 1: empty CSV matrix")
    return DenseMatrix.from_rows(rows)
