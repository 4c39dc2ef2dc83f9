"""Every source kind reads alike, and the file readers and writers keep their
memory bounded.

The same Matrix Market or dense CSV contents are read as a path, as
``bytes``, as the text stream that ``open(path, encoding="ascii")`` gives and
as an ``io.StringIO`` of that stream's text.  All of them must give the same
matrix, bit for bit, or raise the same exception with the same message: a
path or ``bytes`` is read as text mode reads a file (``\\r\\n`` and a lone
``\\r`` end a line; a byte past ASCII raises ``UnicodeDecodeError``).
"""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from iohp.matrices import (DenseMatrix, TripletMatrix, load_dense_csv,
                           load_matrix_market, write_dense_csv,
                           write_matrix_market)

ENDS = [b"\n", b"\r\n", b"\r"]
NON_ASCII = [b"\xc3\xa9", b"\xff", b"\xa0"]


def joined(draw, lines: list[bytes]) -> bytes:
    """``lines``, each ended by a drawn line end, the last one maybe not."""
    ends = [draw(st.sampled_from(ENDS)) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends))


def spoiled(draw, line: bytes) -> bytes:
    """``line``, now and then with a byte past ASCII in it."""
    if draw(st.integers(0, 9)):
        return line
    at = draw(st.integers(0, len(line)))
    return line[:at] + draw(st.sampled_from(NON_ASCII)) + line[at:]


@st.composite
def mm_contents(draw):
    fieldkind = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    n = draw(st.integers(1, 4))
    comments = st.lists(st.sampled_from([b"% c", b"", b"  "]), max_size=2)
    lines = [spoiled(draw, f"%%MatrixMarket matrix coordinate {fieldkind} "
                           f"{symmetry}".encode())]
    lines += draw(comments)
    body = []
    for _ in range(draw(st.integers(0, 8))):
        line = f"{draw(st.integers(1, n))} {draw(st.integers(1, n))}"
        if fieldkind == "integer":
            line += f" {draw(st.integers(-9, 9))}"
        elif fieldkind == "real":
            line += " " + draw(st.sampled_from(["-0.0", "1e400", "nan", "2.5"])
                               | st.floats().map(repr))
        body += draw(comments) + [spoiled(draw, line.encode())]
    n_entries = sum(1 for line in body if line.split() and line[:1] != b"%")
    nnz = n_entries + draw(st.sampled_from([0, 0, 0, 1, -1]))
    lines.append(spoiled(draw, f"{n} {n} {max(nnz, 0)}".encode()))
    lines += body + draw(comments)
    return joined(draw, lines)


@st.composite
def csv_contents(draw):
    n_cols = draw(st.integers(1, 3))
    value = st.sampled_from(["-0.0", "inf", "1e400", "nan", "1_0", "x", ""]) \
        | st.floats().map(repr)
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        lines += draw(st.lists(st.sampled_from([b"", b" "]), max_size=1))
        row = ",".join(draw(value) for _ in range(n_cols))
        lines.append(spoiled(draw, row.encode()))
    return joined(draw, lines)


def outcome(call):
    """A matrix's shape and bits, or the exception's type and message."""
    try:
        m = call()
    except Exception as e:  # every error must match across sources
        return type(e), str(e)
    if isinstance(m, TripletMatrix):
        arrays = m.rows, m.cols, m.vals
    else:
        arrays = (m.data,)
    return (m.n_rows, m.n_cols), [a.view(np.int64).tolist() for a in arrays]


def outcomes(load, contents: bytes, path) -> list:
    path.write_bytes(contents)

    def text_file():
        with open(path, encoding="ascii") as f:
            return load(f)

    def string_io():
        with open(path, encoding="ascii") as f:
            return load(io.StringIO(f.read()))

    return [outcome(lambda: load(str(path))), outcome(lambda: load(contents)),
            outcome(text_file), outcome(string_io)]


# duplicate sums may overflow to inf or meet inf - inf
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestSourceKinds:
    @seed(29)
    @settings(max_examples=300, deadline=None, database=None)
    @given(mm_contents())
    def test_matrix_market_reads_alike(self, tmp_path_factory, contents):
        path = tmp_path_factory.getbasetemp() / "source.mtx"
        first, *rest = outcomes(load_matrix_market, contents, path)
        assert all(other == first for other in rest), (first, rest)

    @seed(29)
    @settings(max_examples=200, deadline=None, database=None)
    @given(csv_contents())
    def test_csv_reads_alike(self, tmp_path_factory, contents):
        path = tmp_path_factory.getbasetemp() / "source.csv"
        first, *rest = outcomes(load_dense_csv, contents, path)
        assert all(other == first for other in rest), (first, rest)

    @pytest.mark.parametrize("contents, want", [
        (b"%%MatrixMarket matrix coordinate real general\r2 2 2\r"
         b"1 1 1.0\r2 2 2.0\r", [(0, 0, 1.0), (1, 1, 2.0)]),
        (b"%%MatrixMarket matrix coordinate pattern symmetric\r\n% c\r\n"
         b"2 2 1\r\n2 1\r\n% tail\r\n", [(0, 1, 1.0), (1, 0, 1.0)]),
        (b"%%MatrixMarket matrix coordinate integer general\n2 2 0\n", []),
    ])
    def test_line_ends_and_fields(self, tmp_path, contents, want):
        results = outcomes(load_matrix_market, contents, tmp_path / "m.mtx")
        assert all(r == results[0] for r in results)
        assert load_matrix_market(contents).entries == want

    @pytest.mark.parametrize("contents, position", [
        (b"%%MatrixMarket matrix coordinate real g\xc3\xa9neral\n1 1 0\n", 39),
        (b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 \xff\n",
         56),
    ])
    def test_non_ascii_names_its_byte(self, tmp_path, contents, position):
        results = outcomes(load_matrix_market, contents, tmp_path / "m.mtx")
        assert all(r == results[0] for r in results)
        assert results[0][0] is UnicodeDecodeError
        assert f"in position {position}:" in results[0][1]

    def test_text_stream_keeps_its_lone_cr(self):
        # a text stream is read as it reads: here the \r joins two lines
        text = ("%%MatrixMarket matrix coordinate real general\n2 2 2\n"
                "1 1 1.0\r2 2 2.0\n")
        with pytest.raises(ValueError, match="^line 4: expected 2 entries"):
            load_matrix_market(io.StringIO(text))
        assert load_matrix_market(text.encode()).nnz == 2


# --- memory -----------------------------------------------------------------

def traced_peak(call) -> int:
    """Peak bytes that ``call`` allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def seeded_triplets(n_rows: int, n_cols: int, nnz: int) -> TripletMatrix:
    """A canonical matrix of ``nnz`` entries with values in [-1, 1)."""
    rng = np.random.default_rng(42)
    flat = np.sort(rng.choice(n_rows * n_cols, size=nnz, replace=False))
    return TripletMatrix(n_rows, n_cols, arrays=(
        flat // n_cols, flat % n_cols, rng.uniform(-1.0, 1.0, nnz)))


def test_load_peaks_below_four_times_the_file(tmp_path):
    path = tmp_path / "x.mtx"  # shaped as a Cora feature matrix
    write_matrix_market(seeded_triplets(2708, 1433, 49283), path)
    size = path.stat().st_size  # 1.41 MB
    # 3.87x the file; 6.88x (9.69 MB) when the text was decoded whole
    assert traced_peak(lambda: load_matrix_market(path)) <= 4 * size


def test_write_peak_bounded_by_its_chunk(tmp_path):
    t = seeded_triplets(5000, 5000, 200_000)  # 13 chunks; read back whole
    # 3.24 MB; 39.0 MB when the whole text was formatted before one write
    assert traced_peak(lambda: write_matrix_market(t, tmp_path / "t.mtx")) \
        <= 39.0e6 / 2
    assert load_matrix_market(tmp_path / "t.mtx") == t
    data = np.random.default_rng(42).uniform(-1.0, 1.0, (20_000, 10))
    dense = DenseMatrix(20_000, 10, data)
    # 1.05 MB; 12.8 MB when the whole text was formatted before one write
    assert traced_peak(lambda: write_dense_csv(dense, tmp_path / "d.csv")) \
        <= 12.8e6 / 2
    assert load_dense_csv(tmp_path / "d.csv").data.tobytes() == data.tobytes()
