import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iohp.encoding import encode_cp_csr, encode_rp_csc, make_geometry
from iohp.errors import (BoundsError, DegenerateInputError,
                         MalformedBlockError)
from iohp.matrices import TripletMatrix, canonicalize, to_csc, to_csr, to_dense
from iohp.planner import PartitionPlan
from test_encoding_reference import decode, dump, row_span, streams, validate


def plan_of(m_t, k_t, n_t):
    return PartitionPlan(1, 1, 1, m_t, k_t, n_t, "RABE", 0)


def worked_instance():
    a = to_csc(TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)]))
    b = to_csr(TripletMatrix(4, 4, [(0, 0, 1.0), (0, 1, 2.0), (1, 2, 4.0),
                                    (2, 1, 6.0)]))
    geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
    return a, b, geom


class TestGeometry:
    def test_single_block(self):
        g = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
        assert (g.t_m, g.t_k, g.t_n) == (1, 1, 1)

    def test_ceiling_division(self):
        g = make_geometry(plan_of(2, 1, 1), (5, 1, 1), (2, 1))
        assert g.t_m == 2  # ceil(5 / (2*2))

    def test_row_strip_covers_dims(self):
        # 8 groups of 339 rows cover 2708 with a ragged remainder
        g = make_geometry(plan_of(339, 2708, 1), (2708, 2708, 1433), (8, 8))
        assert (g.t_m, g.t_k) == (1, 1)
        assert g.t_m * g.g_na * g.m_t >= g.m
        assert row_span(g, 0, 7) == (7 * 339, 2708)  # last group ragged

    def test_zero_dimension_rejected(self):
        with pytest.raises(DegenerateInputError):
            make_geometry(plan_of(1, 1, 1), (0, 3, 3), (1, 1))


class TestEncodeA:
    def test_worked_example(self):
        a, _, geom = worked_instance()
        blk = encode_rp_csc(a, geom, 0, 0)
        s = streams(blk)
        assert s.value[0].tolist() == [5.0, 7.0]
        assert s.local_idx[0].tolist() == [0, 1]
        assert s.lengths[0].tolist() == [1, 1]
        assert s.value[1].tolist() == [3.0]
        assert s.local_idx[1].tolist() == [0]
        assert s.lengths[1].tolist() == [1]
        assert blk.col_idx.tolist() == [0, 1, 2]
        assert s.bitmap.tolist() == [0b01, 0b10, 0b01]
        assert blk.col_all_len == 3

    def test_all_zero_block(self):
        a = to_csc(TripletMatrix(4, 4, []))
        geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
        blk = encode_rp_csc(a, geom, 0, 0)
        assert blk.col_all_len == 0
        assert all(len(v) == 0 for v in streams(blk).value)

    def test_dense_block_single_group(self):
        a = to_csc(canonicalize(2, 2, [(0, 0, 1.0), (0, 1, 2.0),
                                       (1, 0, 3.0), (1, 1, 4.0)]))
        geom = make_geometry(plan_of(2, 2, 2), (2, 2, 2), (1, 1))
        blk = encode_rp_csc(a, geom, 0, 0)
        assert streams(blk).lengths[0].tolist() == [2, 2]
        assert streams(blk).bitmap.tolist() == [1, 1]
        assert blk.col_idx.tolist() == [0, 1]

    def test_block_coords_out_of_range(self):
        a, _, geom = worked_instance()
        with pytest.raises(BoundsError):
            encode_rp_csc(a, geom, 1, 0)

    def test_conservation_and_bitmap_popcount(self):
        rng = np.random.default_rng(3)
        t = canonicalize(16, 16, [(int(r), int(c), float(v)) for r, c, v in
                                  zip(rng.integers(0, 16, 60),
                                      rng.integers(0, 16, 60),
                                      rng.uniform(-1, 1, 60))])
        a = to_csc(t)
        geom = make_geometry(plan_of(3, 7, 4), (16, 16, 16), (2, 2))
        total = 0
        for br in range(geom.t_m):
            for bk in range(geom.t_k):
                blk = encode_rp_csc(a, geom, br, bk)
                validate(blk)
                total += blk.nnz
                s = streams(blk)
                assert sum(int(np.sum(l)) for l in s.lengths) == blk.nnz
                # popcount of each bitmap == groups consuming a length entry
                pops = sum(bin(int(b)).count("1") for b in s.bitmap)
                assert pops == sum(len(l) for l in s.lengths)
                assert all(int(b) >= 1 for b in s.bitmap)
        assert total == t.nnz


class TestEncodeB:
    def test_worked_example(self):
        _, b, geom = worked_instance()
        blk = encode_cp_csr(b, geom, 0, 0)
        s = streams(blk)
        assert s.value[0].tolist() == [1.0, 2.0, 6.0]
        assert s.local_idx[0].tolist() == [0, 1, 1]
        assert s.lengths[0].tolist() == [2, 1]
        assert s.value[1].tolist() == [4.0]
        assert s.local_idx[1].tolist() == [0]
        assert s.lengths[1].tolist() == [1]
        assert blk.row_idx.tolist() == [0, 1, 2]
        assert s.bitmap.tolist() == [0b01, 0b10, 0b01]
        assert blk.row_all_len == 3

    def test_empty_block(self):
        b = to_csr(TripletMatrix(4, 4, []))
        geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
        assert encode_cp_csr(b, geom, 0, 0).row_all_len == 0

    def test_single_dense_row(self):
        b = to_csr(canonicalize(4, 4, [(1, j, float(j + 1)) for j in range(4)]))
        geom = make_geometry(plan_of(4, 4, 4), (4, 4, 4), (1, 1))
        blk = encode_cp_csr(b, geom, 0, 0)
        assert streams(blk).lengths[0].tolist() == [4]
        assert blk.row_idx.tolist() == [1]


class TestRoundtrip:
    def test_worked_roundtrip(self):
        a, _, geom = worked_instance()
        blk = encode_rp_csc(a, geom, 0, 0)
        back = decode(blk, geom)
        assert back.entries == [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)]

    def test_empty_roundtrip(self):
        a = to_csc(TripletMatrix(4, 4, []))
        geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
        assert decode(encode_rp_csc(a, geom, 0, 0), geom).entries == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_roundtrip_random_blocks(self, data):
        # oracle: direct block slicing of the dense form
        m = data.draw(st.integers(1, 14), label="m")
        k = data.draw(st.integers(1, 14), label="k")
        n = data.draw(st.integers(1, 14), label="n")
        g_na = data.draw(st.integers(1, 3), label="g_na")
        g_nb = data.draw(st.integers(1, 3), label="g_nb")
        m_t = data.draw(st.integers(1, 6), label="m_t")
        k_t = data.draw(st.integers(1, 6), label="k_t")
        n_t = data.draw(st.integers(1, 6), label="n_t")
        nnz_a = data.draw(st.integers(0, m * k), label="nnz_a")
        nnz_b = data.draw(st.integers(0, k * n), label="nnz_b")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)

        geom = make_geometry(plan_of(m_t, k_t, n_t), (m, k, n), (g_na, g_nb))
        ta = canonicalize(m, k, [(int(f) // k, int(f) % k, float(v)) for f, v in
                                 zip(rng.choice(m * k, nnz_a, replace=False),
                                     rng.uniform(-9, 9, nnz_a))])
        tb = canonicalize(k, n, [(int(f) // n, int(f) % n, float(v)) for f, v in
                                 zip(rng.choice(k * n, nnz_b, replace=False),
                                     rng.uniform(-9, 9, nnz_b))])
        da, db = to_dense(ta).data, to_dense(tb).data

        br = data.draw(st.integers(0, geom.t_m - 1), label="br")
        bk = data.draw(st.integers(0, geom.t_k - 1), label="bk")
        bc = data.draw(st.integers(0, geom.t_n - 1), label="bc")

        blk_a = encode_rp_csc(to_csc(ta), geom, br, bk)
        back = to_dense(decode(blk_a, geom)).data
        r0, r1 = geom.block_rows(br)
        k0, k1 = geom.k_span(bk)
        mask = np.zeros_like(da)
        mask[r0:r1, k0:k1] = da[r0:r1, k0:k1]
        assert np.array_equal(back, mask)

        blk_b = encode_cp_csr(to_csr(tb), geom, bk, bc)
        back_b = to_dense(decode(blk_b, geom)).data
        c0, c1 = geom.block_cols(bc)
        mask_b = np.zeros_like(db)
        mask_b[k0:k1, c0:c1] = db[k0:k1, c0:c1]
        assert np.array_equal(back_b, mask_b)

    def test_malformed_block_detected(self):
        import dataclasses
        a, _, geom = worked_instance()
        blk = encode_rp_csc(a, geom, 0, 0)
        bad = dataclasses.replace(blk, col_idx=blk.col_idx[::-1])
        with pytest.raises(MalformedBlockError):
            decode(bad, geom)

    def test_ordering_column_major_within_group(self):
        rng = np.random.default_rng(11)
        t = canonicalize(9, 9, [(int(r), int(c), 1.0) for r, c in
                                zip(rng.integers(0, 9, 40),
                                    rng.integers(0, 9, 40))])
        a = to_csc(t)
        geom = make_geometry(plan_of(3, 9, 9), (9, 9, 9), (3, 1))
        blk = encode_rp_csc(a, geom, 0, 0)
        validate(blk)
        s = streams(blk)
        for g in range(3):
            # reconstruct (col, row) order of the stream; must be sorted
            order = []
            pos = 0
            for p in range(blk.col_all_len):
                if int(s.bitmap[p]) >> g & 1:
                    ln = int(s.lengths[g][pos])
                    pos += 1
                    start = len(order)
                    rows = s.local_idx[g][start:start + ln]
                    order.extend((int(blk.col_idx[p]), int(r)) for r in rows)
            assert order == sorted(order)


class TestDump:
    def test_golden_dump(self):
        a, b, geom = worked_instance()
        assert dump(encode_rp_csc(a, geom, 0, 0)) == (
            "kind=rp_csc\n"
            "block=(0,0)\n"
            "col_all_len=3\n"
            "col_idx=0,1,2\n"
            "group_bitmap=1,2,1\n"
            "group=0 col_len=1,1 row_idx=0,1 value=5.0,7.0\n"
            "group=1 col_len=1 row_idx=0 value=3.0\n")
        assert dump(encode_cp_csr(b, geom, 0, 0)) == (
            "kind=cp_csr\n"
            "block=(0,0)\n"
            "row_all_len=3\n"
            "row_idx=0,1,2\n"
            "group_bitmap=1,2,1\n"
            "group=0 row_len=2,1 col_idx=0,1,1 value=1.0,2.0,6.0\n"
            "group=1 row_len=1 col_idx=0 value=4.0\n")
