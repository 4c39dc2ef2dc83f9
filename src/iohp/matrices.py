"""Canonical sparse/dense matrix types and file ingestion.

Triplets keep int64 ``rows``/``cols`` and float64 ``vals`` arrays; CSC keeps
(value, row_idx, col_ptr); CSR keeps (value, col_idx, row_ptr).

A file is read once as bytes and never decoded whole: a Matrix Market
banner and size header are decoded line by line, and its body, or a dense
CSV file, is parsed in one numpy pass over the same buffer.  A path or
``bytes`` that holds ``\\r`` is first rewritten as text mode reads it; a
text stream's text is encoded once.  A line loop reads the text again
wherever the numpy pass cannot vouch for the result (non-ASCII text among
it), and only the loop raises, naming the faulty line.  Loading a real
coordinate file peaks at about its size plus 82 bytes per entry; the
writers format ``WRITE_CHUNK`` entries at a time, so their memory does not
grow with nnz.

No product is computed here: the brute-force dense product that every
sparse path is checked against is a test reference.  A stored entry counts
as nonzero even when its value is exactly 0.0 (duplicates that cancel stay
stored, which keeps nnz conservation checks exact).
"""

from __future__ import annotations

import io
import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (BoundsError, CoordinateError, DegenerateInputError,
                     DimensionError, MatrixFormatError)

Entry = tuple[int, int, float]
KEY_SORT_MIN = 512  # fewer pairs sort faster by lexsort than the key is built
WRITE_CHUNK = 2 ** 14  # entries formatted per write: bounds a writer's memory


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


def coordinate_order(major, minor) -> np.ndarray:
    """Stable order by (major, minor): one :func:`stable_order` of the int64
    key ``major * (max(minor) + 1) + minor`` for ``KEY_SORT_MIN`` or more pairs
    of integers >= 0 whose largest key is below 2**63, else ``np.lexsort``.
    A key below 2**32 (a matrix of up to 2**32 cells) sorts in two 16-bit
    radix passes."""
    if (len(major) >= KEY_SORT_MIN and major.dtype.kind in "iu"
            and minor.dtype.kind in "iu" and min(major.min(), minor.min()) >= 0):
        width = int(minor.max()) + 1
        bound = int(major.max()) * width + width
        if bound <= 2 ** 63:
            major, minor = (a.astype(np.int64, copy=False) for a in (major, minor))
            return stable_order(major * width + minor, bound)
    return np.lexsort((minor, major))


def stable_order(keys, bound: int) -> np.ndarray:
    """Stable argsort of integer keys in ``[0, bound)``.  Up to ``2**16`` they
    sort as uint16, numpy's radix path; up to ``2**32`` in two such passes,
    the low 16 bits and then the high 16 (a least-significant-digit radix
    sort); wider keys sort as they are.  A stable sort's permutation is
    unique, so every path returns ``np.argsort(keys, kind="stable")``.  Wide
    keys already in order (a canonical matrix's CSR key) are their own order."""
    if bound <= 2 ** 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if bound > 2 ** 32:
        return np.argsort(keys, kind="stable")
    if np.all(keys[1:] >= keys[:-1]):
        return np.arange(len(keys))
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low 16 bits
    return order[np.argsort((keys[order] >> 16).astype(np.uint16), kind="stable")]


def run_starts(*keys) -> np.ndarray:
    """Mask of each run's first element, in arrays sorted by the keys
    together."""
    first, *rest = keys
    new = np.ones(len(first), dtype=bool)
    new[1:] = first[1:] != first[:-1]
    for key in rest:
        new[1:] |= key[1:] != key[:-1]
    return new


def coordinate_runs(rows, cols, vals):
    """Stable-sort triplets by (row, col); return them and each run's start."""
    order = coordinate_order(rows, cols)
    rows, cols, vals = rows[order], cols[order], vals[order]
    return rows, cols, vals, np.flatnonzero(run_starts(rows, cols))


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Row-major float64 matrix: a sparse-dense product's B or result."""

    n_rows: int
    n_cols: int
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.n_rows, self.n_cols):
            raise DimensionError(
                f"data shape {self.data.shape} != ({self.n_rows},{self.n_cols})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "DenseMatrix":
        data = np.asarray(rows, dtype=np.float64)
        return cls(data.shape[0], data.shape[1], data)


AnySparse = Union[TripletMatrix, CscMatrix, CsrMatrix]


def check_density(name: str, density: float) -> None:
    """Reject a density outside [0, 1]; NaN fails too."""
    if not 0 <= density <= 1:
        raise DegenerateInputError(f"density {name}={density} outside [0, 1]")


def canonicalize(n_rows: int, n_cols: int, entries: Iterable[Entry] = (),
                 arrays: tuple | None = None) -> TripletMatrix:
    """Sort by (row, col); sum each coordinate's values as a left fold in input
    order (-0.0 + v is v, so a fold starts at its first value).  Takes entries
    (checked as given) or ``arrays=(rows, cols, vals)`` (checked once sorted).
    Input whose (row, col) keys already rise strictly is taken as it is."""
    if arrays is None:
        t = TripletMatrix(n_rows, n_cols, entries)
        arrays = t.rows, t.cols, t.vals
    rows, cols, vals = (np.asarray(a) for a in arrays)
    row_step, col_step = np.diff(rows), np.diff(cols)
    if np.all((row_step > 0) | ((row_step == 0) & (col_step > 0))):
        return TripletMatrix(n_rows, n_cols,
                             arrays=(rows, cols, vals.astype(np.float64)))
    rows, cols, vals, starts = coordinate_runs(rows, cols, vals)
    out, run = vals[starts].astype(np.float64), np.arange(len(starts))
    length = np.diff(starts, append=len(vals))
    for j in range(1, int(length.max(initial=1))):  # the runs still open
        run = run[length[run] > j]
        out[run] += vals[starts[run] + j]
    return TripletMatrix(n_rows, n_cols, arrays=(rows[starts], cols[starts], out))


def _read_bytes(source) -> bytes:
    """A source's contents as bytes: a path or ``bytes`` as a text-mode read
    gives them, a text stream's text as it reads.

    A path or ``bytes`` must be ASCII; any other byte raises the
    ``UnicodeDecodeError`` that decoding the whole raises.  As in text mode,
    ``\\r\\n`` and a lone ``\\r`` become ``\\n``, in a copy made only for
    contents that hold ``\\r``.  A text stream's ``\\r`` is kept, and its text
    is stored as UTF-8 with lone surrogates passed: its ASCII bytes when it is
    ASCII, and otherwise bytes that only the line loops read, decoded.
    """
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        with open(source, "rb") as f:
            data = f.read()
    elif isinstance(source, bytes):
        data = source
    else:
        return _encode(source.read())
    if not data.isascii():
        data.decode("ascii")  # raises, naming the first byte past ASCII
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def _decode(data: bytes) -> str:
    return data.decode("utf-8", "surrogatepass")


def load_matrix_market(source) -> TripletMatrix:
    """Parse Matrix Market coordinate format into a canonical TripletMatrix.

    Accepts a path, text stream, or bytes.  Handles real/integer/pattern
    fields and general/symmetric symmetry; symmetric inputs are expanded to
    full general form.  Pattern entries get value 1.0.  Indices are 1-based
    on disk and converted to 0-based; duplicate coordinates are summed.  Past
    the size header's entry count only blank and ``%`` lines may follow.
    """
    return _parse_mm(_read_bytes(source))


def _end_line(data: bytes) -> int:
    """The line number past the contents' last line, where a missing line is
    named."""
    return data.count(b"\n") + 1 + (not data.endswith(b"\n"))


def _line_at(data: bytes, start: int) -> tuple[str, int]:
    """The text of the line that starts at offset ``start``, and its end."""
    end = data.find(b"\n", start)
    end = len(data) if end < 0 else end
    return _decode(data[start:end]), end


def _parse_mm(data: bytes) -> TripletMatrix:
    banner, end = _line_at(data, 0)
    parts = banner.split()
    if len(parts) < 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
        raise MatrixFormatError("line 1: bad MatrixMarket banner")
    layout, fieldkind, symmetry = (p.lower() for p in parts[2:5])
    if layout != "coordinate":
        raise MatrixFormatError("line 1: only coordinate layout supported")
    if fieldkind not in ("real", "integer", "pattern"):
        raise MatrixFormatError(f"line 1: unsupported field '{fieldkind}'")
    if symmetry not in ("general", "symmetric"):
        raise MatrixFormatError(f"line 1: unsupported symmetry '{symmetry}'")

    lineno, start, tokens = 2, end + 1, None  # find the size header
    while start <= len(data):
        line, end = _line_at(data, start)
        if (tokens := line.split()) and tokens[0][0] != "%":
            break
        lineno, start, tokens = lineno + 1, end + 1, None
    if tokens is None:
        raise MatrixFormatError(f"line {_end_line(data)}: missing size header")
    if len(tokens) != 3:
        raise MatrixFormatError(f"line {lineno}: size header needs 'rows cols nnz'")
    try:
        n_rows, n_cols, nnz = (int(t) for t in tokens)
    except ValueError:
        raise MatrixFormatError(f"line {lineno}: non-integer size header") from None
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise MatrixFormatError(f"line {lineno}: negative size header")
    if max(n_rows, n_cols, nnz) > np.iinfo(np.int64).max:
        raise MatrixFormatError(f"line {lineno}: size header exceeds int64")

    start = end + 1  # the body, past the size header
    pattern = fieldkind == "pattern"
    entries = _bulk_entries(data, start, pattern, nnz, n_rows, n_cols)
    if entries is None:
        lines = _decode(data[start:]).split("\n")
        entries = _line_entries(
            ((i, tokens) for i, line in enumerate(lines, lineno + 1)
             if (tokens := line.split()) and tokens[0][0] != "%"),
            pattern, nnz, n_rows, n_cols, _end_line(data))
    if symmetry == "symmetric":
        entries = _mirror(*entries)
    return canonicalize(n_rows, n_cols, arrays=entries)


_ENTRY_ROW = np.dtype([("r", np.int64), ("c", np.int64), ("v", np.float64)])
_PATTERN_ROW = np.dtype([("r", np.int64), ("c", np.int64)])


def _bulk_entries(data: bytes, start: int, pattern: bool, nnz: int,
                  n_rows: int, n_cols: int):
    """0-based (rows, cols, vals) of every entry line past offset ``start`` in
    one numpy pass, or None unless that pass provably reads what
    :func:`_line_entries` would.

    numpy reads the bytes as ASCII through a stream over the same buffer
    (no copy), splits a line on the same whitespace as ``str.split`` and
    reads ``int``/``float`` tokens as Python does, but rejects a few that
    Python takes (``1_0``, extra tokens, non-ASCII), so any conversion
    error, a ``%`` line, a row count other than ``nnz`` or an index out of
    range is left to the line loop, which accepts or names the faulty line.
    """
    if data.find(b"%", start) >= 0:
        return None
    stream = io.BytesIO(data)
    stream.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body warns
            table = np.loadtxt(stream, comments=None, ndmin=1, encoding="ascii",
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
    if isinstance(m, CscMatrix):  # row-major; columns stay rising in a row
        order = stable_order(m.row_idx, m.n_rows)
        m = canonicalize(m.n_rows, m.n_cols,
                         arrays=tuple(a[order] for a in _coords(m)))
    t = m if isinstance(m, TripletMatrix) else \
        canonicalize(m.n_rows, m.n_cols, arrays=_coords(m))
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{t.n_rows} {t.n_cols} {t.nnz}\n")
        for lo in range(0, t.nnz, WRITE_CHUNK):
            part = slice(lo, lo + WRITE_CHUNK)
            f.write("".join([f"{r} {c} {v!r}\n" for r, c, v in zip(
                (t.rows[part] + 1).tolist(), (t.cols[part] + 1).tolist(),
                t.vals[part].tolist())]))


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
    order = coordinate_order(major, minor)
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


def to_dense(m: AnySparse) -> DenseMatrix:
    """Scatter stored entries onto a zero matrix; the last write wins."""
    rows, cols, vals = _coords(m)
    _, last = np.unique((rows * m.n_cols + cols)[::-1], return_index=True)
    keep = len(rows) - 1 - last
    out = np.zeros((m.n_rows, m.n_cols))
    out[rows[keep], cols[keep]] = vals[keep]
    return DenseMatrix(m.n_rows, m.n_cols, out)


def write_dense_csv(m: DenseMatrix, path) -> None:
    """One row per line, comma-separated, exact decimal text; written about
    ``WRITE_CHUNK`` values (at least one row) at a time."""
    data = m.data.astype(np.float64, copy=False)
    step = max(1, WRITE_CHUNK // max(m.n_cols, 1))
    with open(path, "w", encoding="ascii") as f:
        for lo in range(0, m.n_rows, step):
            f.write("".join([",".join(map(repr, row)) + "\n"
                             for row in data[lo:lo + step].tolist()]))


def load_dense_csv(source) -> DenseMatrix:
    """Comma-separated rows of floats; blank lines are skipped.  A source
    is read as :func:`load_matrix_market` reads it, then in one numpy pass;
    the line loop reads it again when that pass declines, and only the loop
    raises, naming the faulty line."""
    data = _read_bytes(source)
    rows = _bulk_csv(data)
    return DenseMatrix.from_rows(_csv_rows(_decode(data)) if rows is None
                                 else rows)


def _bulk_csv(data: bytes | str):
    """Every row as one float64 array, or None unless numpy reads the bytes
    (or the text) as :func:`_csv_rows` would.  numpy converts a token as
    ``float()`` does but rejects a few that it takes (``1_0``, non-ASCII
    digits, whitespace-only lines), and a ragged or empty file; those are
    left to the loop."""
    stream = io.BytesIO(_encode(data) if isinstance(data, str) else data)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file warns
            return np.loadtxt(stream, delimiter=",", comments=None, ndmin=2,
                              dtype=np.float64, encoding="ascii")
    except (ValueError, Warning):
        return None


def _csv_rows(text: str) -> list[list[float]]:
    """Every non-blank line's floats, read one line at a time; every error
    names its line."""
    rows = []
    for i, line in enumerate(text.split("\n"), start=1):
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
    return rows
