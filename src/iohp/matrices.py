"""Canonical sparse/dense matrix types and file ingestion.

CSC keeps (value, row_idx, col_ptr); CSR keeps (value, col_idx, row_ptr).
``dense_matmul`` is the brute-force reference product every sparse path is
verified against.  All values are float64; a stored entry counts as nonzero
even when its value is exactly 0.0 (duplicates that cancel stay stored, which
keeps nnz conservation checks exact).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BoundsError, DimensionError, MatrixFormatError

Entry = tuple[int, int, float]


@dataclass(frozen=True)
class TripletMatrix:
    """Interchange form: explicit (row, col, value) coordinates.

    Canonical means no two entries share a coordinate and entries are sorted
    by (row, col).  Use :func:`canonicalize` to get there from raw entries.
    """

    n_rows: int
    n_cols: int
    entries: list[Entry] = field(default_factory=list)

    def __post_init__(self):
        for r, c, _ in self.entries:
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
                raise BoundsError(
                    f"entry ({r},{c}) outside {self.n_rows}x{self.n_cols}")

    @property
    def nnz(self) -> int:
        return len(self.entries)


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

    def column(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, values) of column c, rows strictly increasing."""
        s, e = self.col_ptr[c], self.col_ptr[c + 1]
        return self.row_idx[s:e], self.value[s:e]

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

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(col indices, values) of row r, cols strictly increasing."""
        s, e = self.row_ptr[r], self.row_ptr[r + 1]
        return self.col_idx[s:e], self.value[s:e]

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


def canonicalize(n_rows: int, n_cols: int, entries: Iterable[Entry]) -> TripletMatrix:
    """Sum duplicate coordinates and sort by (row, col)."""
    acc: dict[tuple[int, int], float] = {}
    for r, c, v in entries:
        key = (r, c)
        acc[key] = acc.get(key, -0.0) + v  # -0.0 + v is v, bit for bit
    out = [(r, c, v) for (r, c), v in sorted(acc.items())]
    return TripletMatrix(n_rows, n_cols, out)


def load_matrix_market(source) -> TripletMatrix:
    """Parse Matrix Market coordinate format into a canonical TripletMatrix.

    Accepts a path, text stream, or bytes.  Handles real/integer/pattern
    fields and general/symmetric symmetry; symmetric inputs are expanded to
    full general form.  Pattern entries get value 1.0.  Indices are 1-based
    on disk and converted to 0-based; duplicate coordinates are summed.
    """
    if isinstance(source, bytes):
        stream = io.StringIO(source.decode("ascii"))
    elif isinstance(source, str) or hasattr(source, "__fspath__"):
        stream = open(source, "r", encoding="ascii")
    else:
        stream = source
    try:
        return _parse_mm(stream)
    finally:
        if stream is not source:
            stream.close()


def _parse_mm(stream) -> TripletMatrix:
    lineno = 0
    banner = stream.readline()
    lineno += 1
    parts = banner.split()
    if len(parts) < 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
        raise MatrixFormatError(f"line {lineno}: bad MatrixMarket banner")
    layout, fieldkind, symmetry = (p.lower() for p in parts[2:5])
    if layout != "coordinate":
        raise MatrixFormatError(f"line {lineno}: only coordinate layout supported")
    if fieldkind not in ("real", "integer", "pattern"):
        raise MatrixFormatError(f"line {lineno}: unsupported field '{fieldkind}'")
    if symmetry not in ("general", "symmetric"):
        raise MatrixFormatError(f"line {lineno}: unsupported symmetry '{symmetry}'")

    # size header: first non-comment, non-blank line
    while True:
        line = stream.readline()
        lineno += 1
        if not line:
            raise MatrixFormatError(f"line {lineno}: missing size header")
        text = line.strip()
        if text and not text.startswith("%"):
            break
    tokens = text.split()
    if len(tokens) != 3:
        raise MatrixFormatError(f"line {lineno}: size header needs 'rows cols nnz'")
    try:
        n_rows, n_cols, nnz = (int(t) for t in tokens)
    except ValueError:
        raise MatrixFormatError(f"line {lineno}: non-integer size header") from None
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise MatrixFormatError(f"line {lineno}: negative size header")

    entries: list[Entry] = []
    seen = 0
    while seen < nnz:
        line = stream.readline()
        lineno += 1
        if not line:
            raise MatrixFormatError(
                f"line {lineno}: expected {nnz} entries, got {seen}")
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        tokens = text.split()
        try:
            r = int(tokens[0])
            c = int(tokens[1])
        except (ValueError, IndexError):
            raise MatrixFormatError(f"line {lineno}: bad coordinate entry") from None
        if fieldkind == "pattern":
            v = 1.0
        else:
            if len(tokens) < 3:
                raise MatrixFormatError(f"line {lineno}: missing value")
            try:
                v = float(tokens[2])
            except ValueError:
                raise MatrixFormatError(f"line {lineno}: bad value") from None
        if not (1 <= r <= n_rows and 1 <= c <= n_cols):
            raise BoundsError(
                f"line {lineno}: index ({r},{c}) outside {n_rows}x{n_cols}")
        entries.append((r - 1, c - 1, v))
        if symmetry == "symmetric" and r != c:
            entries.append((c - 1, r - 1, v))
        seen += 1
    return canonicalize(n_rows, n_cols, entries)


def write_matrix_market(m: AnySparse, path) -> None:
    """Write coordinate real general Matrix Market; values round-trip exactly."""
    t = m if isinstance(m, TripletMatrix) else to_triplets(m)
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{t.n_rows} {t.n_cols} {t.nnz}\n")
        for r, c, v in t.entries:
            f.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def to_csc(t: TripletMatrix) -> CscMatrix:
    """Lossless conversion of a canonical triplet set to CSC."""
    rows = np.fromiter((e[0] for e in t.entries), dtype=np.int64, count=t.nnz)
    cols = np.fromiter((e[1] for e in t.entries), dtype=np.int64, count=t.nnz)
    vals = np.fromiter((e[2] for e in t.entries), dtype=np.float64, count=t.nnz)
    order = np.lexsort((rows, cols))
    counts = np.bincount(cols, minlength=t.n_cols)
    col_ptr = np.zeros(t.n_cols + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return CscMatrix(t.n_rows, t.n_cols, vals[order], rows[order], col_ptr)


def to_csr(t: TripletMatrix) -> CsrMatrix:
    """Lossless conversion of a canonical triplet set to CSR."""
    rows = np.fromiter((e[0] for e in t.entries), dtype=np.int64, count=t.nnz)
    cols = np.fromiter((e[1] for e in t.entries), dtype=np.int64, count=t.nnz)
    vals = np.fromiter((e[2] for e in t.entries), dtype=np.float64, count=t.nnz)
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=t.n_rows)
    row_ptr = np.zeros(t.n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CsrMatrix(t.n_rows, t.n_cols, vals[order], cols[order], row_ptr)


def to_triplets(m: Union[CscMatrix, CsrMatrix, DenseMatrix]) -> TripletMatrix:
    if isinstance(m, CscMatrix):
        entries = []
        for c in range(m.n_cols):
            rows, vals = m.column(c)
            entries.extend((int(r), c, float(v)) for r, v in zip(rows, vals))
        return canonicalize(m.n_rows, m.n_cols, entries)
    if isinstance(m, CsrMatrix):
        entries = []
        for r in range(m.n_rows):
            cols, vals = m.row(r)
            entries.extend((r, int(c), float(v)) for c, v in zip(cols, vals))
        return canonicalize(m.n_rows, m.n_cols, entries)
    rr, cc = np.nonzero(m.data)
    entries = [(int(r), int(c), float(m.data[r, c])) for r, c in zip(rr, cc)]
    return TripletMatrix(m.n_rows, m.n_cols, entries)


def to_dense(m: Union[AnySparse, DenseMatrix]) -> DenseMatrix:
    """Scatter stored entries onto a zero matrix."""
    if isinstance(m, DenseMatrix):
        return m
    out = np.zeros((m.n_rows, m.n_cols))
    if isinstance(m, TripletMatrix):
        for r, c, v in m.entries:
            out[r, c] = v
    elif isinstance(m, CscMatrix):
        for c in range(m.n_cols):
            rows, vals = m.column(c)
            out[rows, c] = vals
    else:
        for r in range(m.n_rows):
            cols, vals = m.row(r)
            out[r, cols] = vals
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
        for i in range(m.n_rows):
            f.write(",".join(repr(float(v)) for v in m.data[i]) + "\n")


def load_dense_csv(source) -> DenseMatrix:
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="ascii") as f:
            lines = f.readlines()
    else:
        lines = source.readlines()
    rows = []
    width = None
    for i, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            row = [float(t) for t in text.split(",")]
        except ValueError:
            raise MatrixFormatError(f"line {i}: bad CSV number") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixFormatError(f"line {i}: ragged CSV row")
        rows.append(row)
    if not rows:
        raise MatrixFormatError("line 1: empty CSV matrix")
    return DenseMatrix.from_rows(rows)
