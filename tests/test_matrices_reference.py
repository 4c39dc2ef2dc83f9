"""Array-backed triplets against the list-of-tuples implementation they replace.

The references below are the earlier list-based ``canonicalize``, Matrix
Market parser, ``to_triplets``, ``to_dense``, ``write_matrix_market``,
``to_csc``/``to_csr`` and ``random_triplets``, kept verbatim in logic.  Every
comparison is bit for bit: coordinates and their Python types, value bits
(so ``-0.0`` differs from ``0.0``), array dtypes, file bytes and error
messages.  The Matrix Market body's bulk numpy pass is also checked against
the line loop it stands in for.
"""

import io
import struct
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iohp import matrices
from iohp.costmodel import Workload
from iohp.errors import BoundsError, CoordinateError, MatrixFormatError
from iohp.matrices import (CscMatrix, CsrMatrix, TripletMatrix,
                           canonicalize, load_matrix_market, to_csc, to_csr,
                           to_dense, to_triplets, write_matrix_market)
from iohp.planner import HardwareConfig, plan_partition
from iohp.synthetic import random_triplets


# --- references -------------------------------------------------------------

@dataclass(frozen=True)
class RefTriplets:
    n_rows: int
    n_cols: int
    entries: list = field(default_factory=list)

    def __post_init__(self):
        for r, c, _ in self.entries:
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
                raise BoundsError(
                    f"entry ({r},{c}) outside {self.n_rows}x{self.n_cols}")


def ref_canonicalize(n_rows, n_cols, entries):
    acc = {}
    for r, c, v in entries:
        key = (r, c)
        acc[key] = acc.get(key, -0.0) + v
    return RefTriplets(n_rows, n_cols, [(r, c, v) for (r, c), v in sorted(acc.items())])


def ref_parse_mm(stream):
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
    entries = []
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
    return ref_canonicalize(n_rows, n_cols, entries)


def ref_to_triplets(m):
    if isinstance(m, CscMatrix):
        entries = []
        for c in range(m.n_cols):
            s, e = m.col_ptr[c], m.col_ptr[c + 1]
            entries.extend((int(r), c, float(v))
                           for r, v in zip(m.row_idx[s:e], m.value[s:e]))
        return ref_canonicalize(m.n_rows, m.n_cols, entries)
    if isinstance(m, CsrMatrix):
        entries = []
        for r in range(m.n_rows):
            s, e = m.row_ptr[r], m.row_ptr[r + 1]
            entries.extend((r, int(c), float(v))
                           for c, v in zip(m.col_idx[s:e], m.value[s:e]))
        return ref_canonicalize(m.n_rows, m.n_cols, entries)
    rr, cc = np.nonzero(m.data)
    return RefTriplets(m.n_rows, m.n_cols,
                       [(int(r), int(c), float(m.data[r, c])) for r, c in zip(rr, cc)])


def ref_to_dense(m):
    out = np.zeros((m.n_rows, m.n_cols))
    if isinstance(m, RefTriplets):
        for r, c, v in m.entries:
            out[r, c] = v
    elif isinstance(m, CscMatrix):
        for c in range(m.n_cols):
            s, e = m.col_ptr[c], m.col_ptr[c + 1]
            out[m.row_idx[s:e], c] = m.value[s:e]
    else:
        for r in range(m.n_rows):
            s, e = m.row_ptr[r], m.row_ptr[r + 1]
            out[r, m.col_idx[s:e]] = m.value[s:e]
    return out


def ref_write_matrix_market(m, path):
    t = m if isinstance(m, RefTriplets) else ref_to_triplets(m)
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{t.n_rows} {t.n_cols} {len(t.entries)}\n")
        for r, c, v in t.entries:
            f.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def ref_to_csc(t):
    rows = np.fromiter((e[0] for e in t.entries), dtype=np.int64, count=len(t.entries))
    cols = np.fromiter((e[1] for e in t.entries), dtype=np.int64, count=len(t.entries))
    vals = np.fromiter((e[2] for e in t.entries), np.float64, count=len(t.entries))
    order = np.lexsort((rows, cols))
    col_ptr = np.zeros(t.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=t.n_cols), out=col_ptr[1:])
    return CscMatrix(t.n_rows, t.n_cols, vals[order], rows[order], col_ptr)


def ref_to_csr(t):
    rows = np.fromiter((e[0] for e in t.entries), dtype=np.int64, count=len(t.entries))
    cols = np.fromiter((e[1] for e in t.entries), dtype=np.int64, count=len(t.entries))
    vals = np.fromiter((e[2] for e in t.entries), np.float64, count=len(t.entries))
    order = np.lexsort((cols, rows))
    row_ptr = np.zeros(t.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=t.n_rows), out=row_ptr[1:])
    return CsrMatrix(t.n_rows, t.n_cols, vals[order], cols[order], row_ptr)


def ref_random_triplets(n_rows, n_cols, density, rng, values="float"):
    cells = n_rows * n_cols
    nnz = min(cells, max(0, round(density * cells)))
    flat = rng.choice(cells, size=nnz, replace=False)
    if values == "int":
        vals = rng.integers(1, 10, size=nnz).astype(np.float64)
    else:
        vals = rng.uniform(-1.0, 1.0, size=nnz)
    entries = [(int(f) // n_cols, int(f) % n_cols, float(v))
               for f, v in zip(flat, vals)]
    entries.sort(key=lambda e: (e[0], e[1]))
    return RefTriplets(n_rows, n_cols, entries)


# --- comparison helpers -----------------------------------------------------

def bits(entries):
    """Each entry's coordinate types and values and its value's exact bits."""
    return [(type(r), r, type(c), c, type(v), struct.pack("<d", v))
            for r, c, v in entries]


def assert_same(got: TripletMatrix, want: RefTriplets):
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    assert (got.rows.dtype, got.cols.dtype, got.vals.dtype) == \
        (np.int64, np.int64, np.float64)
    assert bits(got.entries) == bits(want.entries)


def assert_same_arrays(got, want):
    assert type(got) is type(want)
    for name in vars(want):
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
        else:
            assert g == w, name


def outcome(call):
    """(result, None) or (None, (error type, message))."""
    try:
        return call(), None
    except (MatrixFormatError, BoundsError) as e:
        return None, (type(e), str(e))


def ref_triplets(t: TripletMatrix) -> RefTriplets:
    return RefTriplets(t.n_rows, t.n_cols, t.entries)


# --- strategies -------------------------------------------------------------

values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 62, 2 ** 62),
    st.sampled_from([-0.0, 0.0, 1.0, 1e16, -1e16, 0.1, 3]))
entry_lists = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                   values), max_size=60)))


# --- canonicalize -----------------------------------------------------------

# numpy warns where a fold overflows to inf; Python's float sum is silent
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestCanonicalize:
    def test_left_fold_not_pairwise(self):
        # np.add.reduceat would give 1.0; the left fold in input order gives 0.0
        got = canonicalize(1, 1, [(0, 0, 1.0), (0, 0, 1e16), (0, 0, -1e16)])
        assert_same(got, ref_canonicalize(1, 1, [(0, 0, 1.0), (0, 0, 1e16),
                                                 (0, 0, -1e16)]))
        assert got.entries == [(0, 0, 0.0)]

    def test_negative_zero_and_int_values(self):
        raw = [(1, 0, -0.0), (0, 1, 3), (1, 0, -0.0), (0, 0, 0.0), (0, 0, -0.0)]
        got = canonicalize(2, 2, raw)
        assert_same(got, ref_canonicalize(2, 2, raw))
        assert np.signbit(got.vals).tolist() == [False, False, True]

    @settings(max_examples=200, deadline=None)
    @given(entry_lists)
    def test_matches_reference(self, case):
        n, raw = case
        assert_same(canonicalize(n, n, raw), ref_canonicalize(n, n, raw))

    @settings(max_examples=100, deadline=None)
    @given(entry_lists)
    def test_order_sensitive_runs(self, case):
        # every entry on one coordinate: the longest possible run
        n, raw = case
        raw = [(0, 0, v) for _, _, v in raw]
        assert_same(canonicalize(n, n, raw), ref_canonicalize(n, n, raw))

    def test_seeded_large(self):
        rng = np.random.default_rng(5)
        raw = list(zip(rng.integers(0, 30, 5000).tolist(),
                       rng.integers(0, 30, 5000).tolist(),
                       (rng.standard_normal(5000) * 10.0 ** rng.integers(-5, 17, 5000))
                       .tolist()))
        assert_same(canonicalize(30, 30, raw), ref_canonicalize(30, 30, raw))


# --- construction -----------------------------------------------------------

class TestConstruction:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 4), st.integers(-2, 4), values),
                    max_size=10))
    def test_bounds_error_names_first_bad_entry(self, raw):
        got = outcome(lambda: TripletMatrix(3, 3, raw))
        want = outcome(lambda: RefTriplets(3, 3, raw))
        assert got[1] == want[1]
        if want[1] is None:
            assert bits(got[0].entries) == bits([(r, c, float(v)) for r, c, v in raw])

    def test_non_integer_coordinate_named(self):
        with pytest.raises(CoordinateError, match=r"entry \(0.5,0\)"):
            TripletMatrix(2, 2, [(0, 0, 1.0), (0.5, 0, 1.0)])
        with pytest.raises(CoordinateError, match=r"entry \(1,nan\)"):
            TripletMatrix(2, 2, [(1, float("nan"), 1.0)])

    def test_first_bad_entry_wins_across_kinds(self):
        with pytest.raises(BoundsError, match=r"entry \(2,0\) outside 2x2"):
            TripletMatrix(2, 2, [(2, 0, 1.0), (0.5, 0, 1.0)])

    def test_integral_float_coordinates_accepted(self):
        t = TripletMatrix(2, 2, [(1.0, 0, 2.0)])
        assert t.entries == [(1, 0, 2.0)] and t.rows.dtype == np.int64

    def test_ragged_entries_rejected(self):
        with pytest.raises(MatrixFormatError):
            TripletMatrix(2, 2, [(0, 0)])

    def test_generator_entries(self):
        t = TripletMatrix(2, 2, ((r, r, 1.0) for r in range(2)))
        assert t.entries == [(0, 0, 1.0), (1, 1, 1.0)]


# --- Matrix Market ----------------------------------------------------------

def _value_token(draw, fieldkind):
    if fieldkind == "pattern":
        return ""
    kind = draw(st.sampled_from(["float", "float", "float", "int", "bad", "none"]))
    if kind == "float":
        return " " + repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "int":
        return f" {draw(st.integers(-99, 99))}"
    return " x" if kind == "bad" else ""


@st.composite
def mm_texts(draw):
    fieldkind = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    n_rows, n_cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    lines = [f"%%MatrixMarket matrix coordinate {fieldkind} {symmetry}"]
    lines += draw(st.lists(st.sampled_from(["% c", "", "   "]), max_size=2))
    n_entries = draw(st.integers(0, 12))
    body = []
    for _ in range(n_entries):
        body += draw(st.lists(st.sampled_from(["% c", "", " \t"]), max_size=1))
        if draw(st.integers(0, 30)) == 0:
            body.append(draw(st.sampled_from(["x 1 1.0", "1", "1 y 2.0"])))
            continue
        r = draw(st.integers(0, n_rows + 1))
        c = draw(st.integers(0, n_cols + 1))
        if draw(st.booleans()):  # mostly in bounds
            r, c = min(max(r, 1), max(n_rows, 1)), min(max(c, 1), max(n_cols, 1))
        body.append(f"{r} {c}" + _value_token(draw, fieldkind))
    # the header never counts fewer entries than the body holds, so that
    # the reference (which ignores extra lines) and the parser agree
    nnz = n_entries + draw(st.integers(0, 1))
    lines.append(f"{n_rows} {n_cols} {nnz}")
    lines += body
    lines += draw(st.lists(st.sampled_from(["% tail", ""]), max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def parse_both(text):
    got = outcome(lambda: load_matrix_market(io.StringIO(text)))
    want = outcome(lambda: ref_parse_mm(io.StringIO(text)))
    return got, want


class TestMatrixMarket:
    @settings(max_examples=250, deadline=None)
    @given(mm_texts())
    def test_matches_reference(self, text):
        (got, got_err), (want, want_err) = parse_both(text)
        assert got_err == want_err
        if want_err is None:
            assert_same(got, want)

    @pytest.mark.parametrize("text", [
        "",
        "%%MatrixMarket matrix\n",
        "%%NotMatrixMarket matrix coordinate real general\n1 1 0\n",
        "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
        "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
        "%%MatrixMarket matrix coordinate real general\n% only a comment\n\n",
        "%%MatrixMarket matrix coordinate real general",
        "%%MatrixMarket matrix coordinate real general\n2 2\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 x\n",
        "%%MatrixMarket matrix coordinate real general\n2 -2 0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n\n% c\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 one\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1.5\n",
        "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1 junk\n2 x\n",
        # the first faulty line decides, whatever the later ones hold
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n3 3 1\n1 1 x\n1\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 x\n3 3 1\n",
        "%%MatrixMarket matrix coordinate real general\r\n2 2 1\r\n2 2 4.0\r\n",
    ])
    def test_error_messages_match_reference(self, text):
        (got, got_err), (want, want_err) = parse_both(text)
        assert got_err == want_err
        if want_err is None:
            assert_same(got, want)

    def test_symmetric_pattern_integer_with_comments(self):
        text = ("%%MatrixMarket matrix coordinate integer symmetric\n% c\n"
                "3 3 4\n2 1 4\n\n% mid\n3 3 -9\n3 1 7\n1 1 0\n% tail\n\n")
        (got, _), (want, _) = parse_both(text)
        assert_same(got, want)
        text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
                "3 3 3\n2 1\n3 2\n2 1\n")
        (got, _), (want, _) = parse_both(text)
        assert_same(got, want)

    def test_extra_entry_named(self):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n1 1 1.0\n% c\n\n2 2 5.0\n")
        with pytest.raises(MatrixFormatError, match="^line 6: more entries than the 1"):
            load_matrix_market(io.StringIO(text))

    def test_bytes_and_path_sources(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 -0.0\n1 2 3\n"
        path = tmp_path / "m.mtx"
        path.write_text(text)
        want = ref_parse_mm(io.StringIO(text))
        for source in (text.encode("ascii"), str(path), path):
            assert_same(load_matrix_market(source), want)


# --- bulk body parse against the line loop ----------------------------------

def parse_paths(text):
    """The parse as shipped and with the line loop alone, as outcomes, and
    whether the bulk pass answered."""
    answered = []

    def bulk(*args):
        entries = real_bulk(*args)
        answered.append(entries is not None)
        return entries

    real_bulk = matrices._bulk_entries
    with mock.patch.object(matrices, "_bulk_entries", bulk):
        shipped = outcome(lambda: load_matrix_market(io.StringIO(text)))
    with mock.patch.object(matrices, "_bulk_entries", lambda *args: None):
        loop = outcome(lambda: load_matrix_market(io.StringIO(text)))
    return shipped, loop, any(answered)


def raw_bits(t: TripletMatrix):
    """Shape and every array's int64 bits: NaN payloads and -0.0 count."""
    return ((t.n_rows, t.n_cols), t.rows.dtype, t.cols.dtype, t.vals.dtype,
            t.rows.tolist(), t.cols.tolist(), t.vals.view(np.int64).tolist())


def assert_same_outcome(shipped, loop):
    (got, got_err), (want, want_err) = shipped, loop
    assert got_err == want_err
    if want_err is None:
        assert raw_bits(got) == raw_bits(want)


SPECIAL_VALUES = ["-0.0", "nan", "-nan", "inf", "-inf", "1e400", "-1e400",
                  "1e-400", "+3", "-7", "5.", ".5", "1E5", "Infinity"]


@st.composite
def valid_mm_texts(draw):
    """Files the line loop accepts, written as real tools may write them."""
    fieldkind = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    n_rows = draw(st.integers(1, 4))
    n_cols = n_rows if symmetry == "symmetric" else draw(st.integers(1, 4))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    sep = st.sampled_from([" ", "  ", "\t", " \t "])
    body = []
    for _ in range(draw(st.integers(0, 14))):
        body += draw(st.lists(st.sampled_from(["", "  ", "\t", "% c"]),
                              max_size=1))
        r, c = draw(st.integers(1, n_rows)), draw(st.integers(1, n_cols))
        line = f"{r}{draw(sep)}{c}"
        if fieldkind == "integer":
            line += f"{draw(sep)}{draw(st.integers(-99, 99))}"
        elif fieldkind == "real":
            line += draw(sep) + draw(st.one_of(
                st.sampled_from(SPECIAL_VALUES),
                st.floats().map(repr), st.integers(-99, 99).map(str)))
        body.append(draw(st.sampled_from(["", " ", "\t"])) + line
                    + draw(st.sampled_from(["", " ", "\t"])))
    n_entries = sum(1 for line in body if line.split() and line[0] != "%")
    tail = draw(st.lists(st.sampled_from(["", "% tail", "   "]), max_size=2))
    lines = ([f"%%MatrixMarket matrix coordinate {fieldkind} {symmetry}",
              f"{n_rows} {n_cols} {n_entries}"] + body + tail)
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


TRICKY_TOKENS = ["1", "2", "3", "+1", "-1", "0", "1_0", "1.0", "1e0", "0x1",
                 "99999999999999999999", "nan", "-nan", "inf", "1e400",
                 "-0.0", "2.5", "x", "%", "3.0%x", "1e", "١"]


@st.composite
def tricky_mm_texts(draw):
    """Bodies built from tokens that numpy and Python may read differently."""
    fieldkind = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    seps = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\r", "\xa0"])
    ends = st.sampled_from(["\n", "\r\n", "\r\r\n", "\r", " \n"])
    body = ""
    for _ in range(draw(st.integers(0, 6))):
        tokens = draw(st.lists(st.sampled_from(TRICKY_TOKENS), max_size=4))
        body += "".join(t + draw(seps) for t in tokens) + draw(ends)
    nnz = draw(st.integers(0, 6))
    return (f"%%MatrixMarket matrix coordinate {fieldkind} {symmetry}\n"
            f"{draw(st.integers(0, 3))} {draw(st.integers(0, 3))} {nnz}\n"
            + body)


# duplicate sums may overflow to inf or meet inf - inf; Python folds silently
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBulkBodyParse:
    """The bulk pass over the entry lines must answer exactly as the line
    loop would, or leave the file to it."""

    @settings(max_examples=300, deadline=None)
    @given(valid_mm_texts())
    def test_valid_files_bit_identical(self, text):
        shipped, loop, answered = parse_paths(text)
        assert loop[1] is None, loop[1]
        assert_same_outcome(shipped, loop)
        if "nan" not in text:  # NaN sums may carry another payload in Python
            assert_same(shipped[0], ref_parse_mm(io.StringIO(text)))
        body = text.split("\n", 2)[2] if text.count("\n") > 1 else ""
        if "%" not in body and shipped[0].nnz:
            assert answered  # CRLF, blanks and odd tokens stay on the fast path

    @settings(max_examples=500, deadline=None)
    @given(tricky_mm_texts())
    def test_tricky_files_same_outcome(self, text):
        assert_same_outcome(*parse_paths(text)[:2])

    GENERAL = "%%MatrixMarket matrix coordinate real general\n"

    @pytest.mark.parametrize("body, error", [
        ("2 2 2\n1 1\n1 1 2.0 3\n", "line 3: missing value"),
        ("2 2 1\n1 1 2.0 9\n", None),  # the loop ignores extra tokens
        ("2 2 1\n1 1 3.0%x\n", "line 3: bad value"),
        ("20 20 1\n1_0 1 2.0\n", None),  # Python's int reads 1_0
        ("2 2 1\n1 1 1_0\n", None),
        ("2 2 1\n1.0 1 2.0\n", "line 3: bad coordinate entry"),
        ("2 2 1\n99999999999999999999 1 1.0\n",
         "line 3: index (99999999999999999999,1) outside 2x2"),
        ("2 2 2\n1 1 1.0\n3 1 1.0\n", "line 4: index (3,1) outside 2x2"),
        ("2 2 2\n1 1 1.0\n0 1 1.0\n", "line 4: index (0,1) outside 2x2"),
        ("2 2 3\n1 1 1.0\n2 2 2.0\n", "line 5: expected 3 entries, got 2"),
        ("2 2 1\n1 1 1.0\n2 2 2.0\n",
         "line 4: more entries than the 1 the size header declares"),
        ("2 2 2\n1 1 1.0\r2 2 2.0\n", "line 4: expected 2 entries, got 1"),
    ])
    def test_numpy_rejects_loop_decides(self, body, error):
        shipped, loop, answered = parse_paths(self.GENERAL + body)
        assert_same_outcome(shipped, loop)
        assert not answered
        assert (loop[1] and loop[1][1]) == error

    def test_pattern_extra_token_left_to_loop(self):
        text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
                "3 3 2\n2 1 junk\n3 3\n")
        shipped, loop, answered = parse_paths(text)
        assert_same_outcome(shipped, loop)
        assert not answered and loop[0].entries == [
            (0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)]

    @pytest.mark.parametrize("bulk", [True, False])
    def test_coordinates_past_float_precision_kept_exact(self, bulk):
        text = f"{self.GENERAL}{2 ** 60} 1 1\n{2 ** 53 + 2} 1 1.0\n"
        stub = matrices._bulk_entries if bulk else (lambda *args: None)
        with mock.patch.object(matrices, "_bulk_entries", stub):
            t = load_matrix_market(io.StringIO(text))
        assert t.rows.tolist() == [2 ** 53 + 1]

    def test_symmetric_duplicates_fold_in_file_order(self):
        # (1,2) then the mirror of (2,1): the fold order decides the sum
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 3\n1 2 1e16\n2 1 1.0\n1 2 -1e16\n")
        shipped, loop, answered = parse_paths(text)
        assert answered
        assert_same_outcome(shipped, loop)
        assert shipped[0].entries == [(0, 1, 0.0), (1, 0, 0.0)]


# --- conversions and writing ------------------------------------------------

def _random_canonical(rng, m, n):
    flat = rng.choice(m * n, size=int(rng.integers(0, m * n + 1)), replace=False)
    vals = rng.standard_normal(len(flat))
    vals[::5] = -0.0
    return canonicalize(m, n, [(int(f) // n, int(f) % n, float(v))
                               for f, v in zip(flat, vals)])


class TestConversions:
    def test_compressed_forms_match_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m, n = (int(x) for x in rng.integers(1, 15, 2))
            t = _random_canonical(rng, m, n)
            ref = ref_triplets(t)
            assert_same_arrays(to_csc(t), ref_to_csc(ref))
            assert_same_arrays(to_csr(t), ref_to_csr(ref))
            for sparse in (to_csc(t), to_csr(t)):
                assert_same(to_triplets(sparse), ref_to_triplets(sparse))
                assert to_dense(sparse).data.tobytes() == ref_to_dense(sparse).tobytes()
            dense = to_dense(t)
            assert dense.data.tobytes() == ref_to_dense(ref).tobytes()
            assert_same(to_triplets(dense), ref_to_triplets(dense))

    def test_compressed_with_duplicates(self):
        # a hand-built CSC may store a coordinate twice: summed, in order
        csc = CscMatrix(2, 2, np.array([1.0, 1e16, -1e16, 2.0]),
                        np.array([0, 0, 0, 1]), np.array([0, 3, 4]))
        assert_same(to_triplets(csc), ref_to_triplets(csc))
        assert to_dense(csc).data.tobytes() == ref_to_dense(csc).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(entry_lists)
    def test_to_dense_last_write_wins(self, case):
        n, raw = case
        t = TripletMatrix(n, n, raw)
        assert to_dense(t).data.tobytes() == ref_to_dense(ref_triplets(t)).tobytes()

    def test_write_matches_reference(self, tmp_path):
        rng = np.random.default_rng(3)
        for i in range(20):
            m, n = (int(x) for x in rng.integers(1, 12, 2))
            t = _random_canonical(rng, m, n)
            raw = TripletMatrix(m, n, t.entries[::-1] + t.entries[:2])  # as stored
            for j, (got, want) in enumerate([(t, ref_triplets(t)),
                                             (raw, ref_triplets(raw)),
                                             (to_csc(t), to_csc(t)),
                                             (to_csr(t), to_csr(t))]):
                write_matrix_market(got, tmp_path / "got.mtx")
                ref_write_matrix_market(want, tmp_path / "want.mtx")
                assert (tmp_path / "got.mtx").read_bytes() == \
                    (tmp_path / "want.mtx").read_bytes(), (i, j)


# --- synthetic --------------------------------------------------------------

class TestRandomTriplets:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shape,density", [((1, 1), 1.0), ((13, 7), 0.3),
                                               ((40, 90), 0.05), ((5, 5), 0.0),
                                               ((3, 4), 2.0)])
    @pytest.mark.parametrize("kind", ["float", "int"])
    def test_matches_reference_and_rng_state(self, seed, shape, density, kind):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_triplets(*shape, density, rng_got, kind)
        assert_same(got, ref_random_triplets(*shape, density, rng_want, kind))
        assert rng_got.random() == rng_want.random()


# --- scale ------------------------------------------------------------------

def test_million_nnz_ssmm_converts_and_plans():
    """A seeded 10^6-nnz SSMM pair: generate, convert and plan it."""
    rng = np.random.default_rng(2026)
    dim, density = 20_000, 0.0025
    a = random_triplets(dim, dim, density, rng)
    b = random_triplets(dim, dim, density, rng)
    assert a.nnz == b.nnz == 1_000_000
    csc, csr = to_csc(a), to_csr(b)
    assert csc.col_ptr[-1] == csr.row_ptr[-1] == 1_000_000
    assert int(csc.row_idx.max()) < dim and int(csr.col_idx.max()) < dim
    assert np.array_equal(np.bincount(a.cols, minlength=dim), csc.nnz_per_column())
    assert np.array_equal(csr.value, b.vals)  # canonical triplets are row-major
    cfg = HardwareConfig()
    plan = plan_partition(cfg, Workload(csc, csr).spec(cfg))
    # a block spans g_na (g_nb) groups of m_t rows (n_t columns)
    assert plan.t_m * cfg.g_na * plan.m_t >= dim and plan.t_k * plan.k_t >= dim
    assert plan.t_n * cfg.g_nb * plan.n_t >= dim and plan.predicted_dram > 0
