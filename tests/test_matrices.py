import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from iohp.encoding import encode_rp_csc, make_geometry
from iohp.errors import BoundsError, DimensionError, MatrixFormatError
from iohp.matrices import (CscMatrix, DenseMatrix, TripletMatrix, canonicalize,
                           load_dense_csv, load_matrix_market, run_lengths,
                           to_csc, to_csr, to_dense, to_triplets,
                           write_dense_csv, write_matrix_market)
from iohp.planner import PartitionPlan
from test_encoding_reference import decode
from test_matrices_reference import dense_matmul


def mm(text: str):
    return load_matrix_market(text.encode())


class TestLoadMatrixMarket:
    def test_basic_real_general(self):
        t = mm("%%MatrixMarket matrix coordinate real general\n"
               "4 4 2\n1 1 5.0\n3 2 3.0\n")
        assert (t.n_rows, t.n_cols) == (4, 4)
        assert t.entries == [(0, 0, 5.0), (2, 1, 3.0)]

    def test_empty_entry_list(self):
        t = mm("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
        assert (t.n_rows, t.n_cols, t.entries) == (3, 3, [])

    def test_duplicates_summed(self):
        # oracle: scripted reference pass summing by coordinate
        raw = [(1, 1, 2.0), (1, 1, 3.0)]
        expect = {}
        for r, c, v in raw:
            expect[(r - 1, c - 1)] = expect.get((r - 1, c - 1), 0.0) + v
        t = mm("%%MatrixMarket matrix coordinate real general\n"
               "2 2 2\n1 1 2.0\n1 1 3.0\n")
        assert t.entries == [(rc[0], rc[1], v) for rc, v in sorted(expect.items())]
        assert t.entries == [(0, 0, 5.0)]

    def test_pattern_entries_get_unit_value(self):
        t = mm("%%MatrixMarket matrix coordinate pattern general\n"
               "2 2 2\n1 2\n2 1\n")
        assert t.entries == [(0, 1, 1.0), (1, 0, 1.0)]

    def test_symmetric_expanded(self):
        t = mm("%%MatrixMarket matrix coordinate real symmetric\n"
               "3 3 2\n2 1 4.0\n3 3 9.0\n")
        assert t.entries == [(0, 1, 4.0), (1, 0, 4.0), (2, 2, 9.0)]

    def test_comments_and_blank_lines_skipped(self):
        t = mm("%%MatrixMarket matrix coordinate real general\n"
               "% a comment\n\n2 2 1\n% another\n2 2 7.5\n")
        assert t.entries == [(1, 1, 7.5)]

    def test_bad_banner_names_line(self):
        with pytest.raises(MatrixFormatError, match="line 1"):
            mm("%%NotMatrixMarket\n2 2 0\n")

    def test_bad_size_header_names_line(self):
        with pytest.raises(MatrixFormatError, match="line 2"):
            mm("%%MatrixMarket matrix coordinate real general\nfoo bar\n")

    @pytest.mark.parametrize("header", [f"{2 ** 63} 1 0", f"1 {2 ** 63} 0",
                                        f"1 1 {2 ** 63}"])
    def test_size_header_beyond_int64_names_line(self, header):
        with pytest.raises(MatrixFormatError,
                           match="^line 2: size header exceeds int64$"):
            mm(f"%%MatrixMarket matrix coordinate real general\n{header}\n")

    def test_size_header_at_int64_max_parses(self):
        t = mm(f"%%MatrixMarket matrix coordinate real general\n{2 ** 63 - 1} 1 0\n")
        assert (t.n_rows, t.n_cols, t.nnz) == (2 ** 63 - 1, 1, 0)

    def test_out_of_bounds_index(self):
        with pytest.raises(BoundsError, match="line 3"):
            mm("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")

    def test_truncated_entries(self):
        with pytest.raises(MatrixFormatError):
            mm("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")

    def test_write_roundtrip_exact(self, tmp_path):
        t = canonicalize(5, 3, [(0, 0, 0.1), (4, 2, -7.25), (2, 1, 1e-17)])
        path = tmp_path / "m.mtx"
        write_matrix_market(t, path)
        back = load_matrix_market(str(path))
        assert back == t

    def test_write_numpy_floats_round_trip(self, tmp_path):
        t = canonicalize(2, 2, [(0, 0, np.float64(1.5)), (1, 0, np.float64(-0.0))])
        path = tmp_path / "m.mtx"
        write_matrix_market(t, path)
        assert path.read_text().splitlines()[2:] == ["1 1 1.5", "2 1 -0.0"]
        back = load_matrix_market(str(path))
        assert back == t
        assert np.signbit(back.entries[1][2])


class TestConversions:
    def test_to_csc_worked_example(self):
        t = TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)])
        a = to_csc(t)
        assert a.value.tolist() == [5.0, 3.0, 7.0]
        assert a.row_idx.tolist() == [0, 2, 1]
        assert a.col_ptr.tolist() == [0, 1, 2, 3, 3]

    def test_to_csc_empty(self):
        a = to_csc(TripletMatrix(3, 3, []))
        assert a.col_ptr.tolist() == [0, 0, 0, 0]
        assert len(a.value) == 0 and len(a.row_idx) == 0

    def test_to_csc_single(self):
        a = to_csc(TripletMatrix(1, 1, [(0, 0, 2.5)]))
        assert a.value.tolist() == [2.5]
        assert a.row_idx.tolist() == [0]
        assert a.col_ptr.tolist() == [0, 1]

    def test_to_csr_mirror(self):
        t = TripletMatrix(4, 4, [(0, 0, 1.0), (0, 1, 2.0), (1, 2, 4.0), (2, 1, 6.0)])
        b = to_csr(t)
        assert b.value.tolist() == [1.0, 2.0, 4.0, 6.0]
        assert b.col_idx.tolist() == [0, 1, 2, 1]
        assert b.row_ptr.tolist() == [0, 2, 3, 4, 4]

    def test_roundtrip_property_random(self):
        # oracle: direct triplet scatter
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(1, 12))
            n = int(rng.integers(1, 12))
            nnz = int(rng.integers(0, m * n + 1))
            flat = rng.choice(m * n, size=nnz, replace=False)
            t = canonicalize(m, n, [(int(f) // n, int(f) % n,
                                     float(rng.uniform(-5, 5))) for f in flat])
            scatter = np.zeros((m, n))
            for r, c, v in t.entries:
                scatter[r, c] = v
            assert np.array_equal(to_dense(to_csc(t)).data, scatter)
            assert np.array_equal(to_dense(to_csr(t)).data, scatter)
            assert np.array_equal(to_dense(t).data, scatter)

    def test_nnz_conserved_including_explicit_zero(self):
        t = canonicalize(2, 2, [(0, 0, 1.0), (0, 0, -1.0), (1, 1, 3.0)])
        assert t.nnz == 2  # cancelled duplicate kept as explicit zero
        assert to_csc(t).nnz == 2
        assert to_csr(t).nnz == 2

    def test_col_ptr_deltas_sum_to_nnz(self):
        t = canonicalize(6, 5, [(0, 0, 1.0), (5, 4, 2.0), (3, 2, 3.0), (2, 2, 4.0)])
        a = to_csc(t)
        deltas = np.diff(a.col_ptr)
        assert np.all(deltas >= 0) and deltas.sum() == t.nnz

    def test_negative_zero_survives_round_trips(self):
        t = TripletMatrix(2, 2, [(0, 0, -0.0), (1, 1, 2.0)])
        geom = make_geometry(PartitionPlan(1, 1, 1, 1, 2, 2, "RABE", 0),
                             (2, 2, 2), (2, 1))
        for back in (to_triplets(to_csc(t)),
                     decode(encode_rp_csc(to_csc(t), geom, 0, 0), geom)):
            assert [(r, c) for r, c, _ in back.entries] == [(0, 0), (1, 1)]
            assert (np.array([v for _, _, v in back.entries]).tobytes()
                    == np.array([-0.0, 2.0]).tobytes())

    def test_duplicate_sums_keep_their_value(self):
        t = canonicalize(1, 2, [(0, 0, -0.0), (0, 0, -0.0), (0, 1, -0.0),
                                (0, 1, 0.0)])
        assert np.array([v for _, _, v in t.entries]).tobytes() == \
            np.array([-0.0, 0.0]).tobytes()

    def test_to_triplets_inverse(self):
        t = canonicalize(3, 4, [(0, 1, 2.0), (2, 3, -1.5)])
        assert to_triplets(to_csc(t)) == t
        assert to_triplets(to_csr(t)) == t


class TestCoordinatesNeverMove:
    """A coordinate is stored exactly or rejected with an error that names its
    entry.  Tuples and float arrays hold float64, which rounds integers from
    2**53, so their coordinates must lie below it; an integer array holds
    int64, which ends at 2**63."""

    @pytest.mark.parametrize("row, n_rows", [(2 ** 53 + 1, 2 ** 60),
                                             (2 ** 63 + 10, 2 ** 80)])
    def test_tuple_coordinate_past_2_53_rejected(self, row, n_rows):
        with pytest.raises(BoundsError, match=rf"^entry \({row},0\) has a "
                           r"coordinate of 2\*\*53 or more$"):
            TripletMatrix(n_rows, 4, [(row, 0, 1.0)])
        t = TripletMatrix(2 ** 60, 4, arrays=([2 ** 53 + 1], [0], [1.0]))
        assert t.rows.tolist() == [2 ** 53 + 1]

    def test_neighbouring_tuple_coordinates_not_merged(self):
        with pytest.raises(BoundsError, match=r"^entry \(9007199254740993,0\) "):
            canonicalize(2 ** 60, 4, [(2 ** 53 + 1, 0, 1.0), (2 ** 53, 0, 2.0)])

    @pytest.mark.parametrize("rows", [[2 ** 70],
                                      np.array([2 ** 63 + 10], np.uint64)])
    def test_array_coordinate_past_int64_rejected(self, rows):
        with pytest.raises(BoundsError, match=rf"^entry \({rows[0]},0\) has a "
                           r"coordinate of 2\*\*63 or more$"):
            TripletMatrix(2 ** 80, 4, arrays=(rows, [0], [1.0]))

    def test_mixed_list_coordinate_past_2_53_rejected(self):
        arrays = ([2 ** 53 + 1, 2.0], [0, 1], [1.0, 1.0])  # rows turn float64
        with pytest.raises(BoundsError, match=r"^entry \(9007199254740993,0\) has "
                           r"a coordinate of 2\*\*53 or more$"):
            TripletMatrix(2 ** 60, 4, arrays=arrays)

    def test_canonicalize_names_a_mixed_list_coordinate_as_given(self):
        # checked before the fold, which would hold 2**53 + 1 as 2**53
        arrays = ([2 ** 53 + 1, 2.0], [0, 1], [1.0, 1.0])
        with pytest.raises(BoundsError, match=r"^entry \(9007199254740993,0\) has "
                           r"a coordinate of 2\*\*53 or more$"):
            canonicalize(2 ** 60, 4, arrays=arrays)


class TestRunLengths:
    """``run_lengths`` is ``np.diff(starts, append=end)``, values and dtype."""

    @seed(36)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.integers(0, 2 ** 40), max_size=40), st.integers(0, 2 ** 20))
    def test_is_diff_with_append(self, points, tail):
        starts = np.unique(np.array(points, dtype=np.int64))  # rising, intp
        end = int(starts[-1]) + tail if len(starts) else tail
        want = np.diff(starts, append=end)
        got = run_lengths(starts, end)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("starts, end", [([], 0), ([], 5), ([0], 1), ([0], 7),
                                             ([3], 3)])
    def test_empty_and_single_run(self, starts, end):
        starts = np.array(starts, dtype=np.intp)
        want = np.diff(starts, append=end)
        got = run_lengths(starts, end)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestDense:
    def test_to_dense_empty(self):
        d = to_dense(TripletMatrix(2, 2, []))
        assert np.array_equal(d.data, np.zeros((2, 2)))

    def test_to_dense_csc_scatter(self):
        t = TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)])
        d = to_dense(to_csc(t))
        expect = np.zeros((4, 4))
        expect[0, 0], expect[2, 1], expect[1, 2] = 5.0, 3.0, 7.0
        assert np.array_equal(d.data, expect)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        b = DenseMatrix(3, 5, rng.uniform(-1, 1, (3, 5)))
        eye = DenseMatrix(3, 3, np.eye(3))
        assert np.array_equal(dense_matmul(eye, b).data, b.data)

    def test_matmul_hand_example(self):
        a = DenseMatrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
        b = DenseMatrix.from_rows([[5.0, 6.0], [7.0, 8.0]])
        assert dense_matmul(a, b).data.tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_matmul_zeros(self):
        a = DenseMatrix(2, 3, np.arange(6, dtype=float).reshape(2, 3))
        z = DenseMatrix(3, 4, np.zeros((3, 4)))
        assert np.array_equal(dense_matmul(a, z).data, np.zeros((2, 4)))

    def test_matmul_dim_mismatch(self):
        a = DenseMatrix(2, 3, np.zeros((2, 3)))
        b = DenseMatrix(4, 2, np.zeros((4, 2)))
        with pytest.raises(DimensionError):
            dense_matmul(a, b)

    def test_csv_roundtrip(self, tmp_path):
        d = DenseMatrix.from_rows([[0.1, -2.0], [3.5e-7, 4.0]])
        path = tmp_path / "d.csv"
        write_dense_csv(d, path)
        back = load_dense_csv(str(path))
        assert np.array_equal(back.data, d.data)

    def test_csc_invariant_enforced(self):
        with pytest.raises(MatrixFormatError):
            CscMatrix(2, 2, np.array([1.0]), np.array([0]),
                      np.array([0, 0, 0]))  # col_ptr end != nnz
