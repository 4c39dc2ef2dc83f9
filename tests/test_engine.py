import numpy as np
import pytest

from iohp.costmodel import Workload, run
from iohp.encoding import encode_cp_csr, encode_rp_csc, make_geometry
from iohp.engine import (OutputBlock, assemble_output, compute_psums,
                         merge_output_blocks, sdmm_compute)
from iohp.errors import (DimensionError, GatherError, MalformedBlockError,
                         PsumOverflowError)
from iohp.matrices import (DenseMatrix, TripletMatrix, canonicalize,
                           dense_matmul, to_csc, to_csr, to_dense)
from iohp.planner import HardwareConfig, PartitionPlan
from iohp.synthetic import random_dense, random_triplets
from test_engine_reference import (address_map, dump_psum_store, lone_store,
                                   psums_with_records, validate_psum_store)


def plan_of(m_t, k_t, n_t):
    return PartitionPlan(1, 1, 1, m_t, k_t, n_t, "RABE", 0)


def worked_blocks():
    a = to_csc(TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)]))
    b = to_csr(TripletMatrix(4, 4, [(0, 0, 1.0), (0, 1, 2.0), (1, 2, 4.0),
                                    (2, 1, 6.0)]))
    geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
    return encode_rp_csc(a, geom, 0, 0), encode_cp_csr(b, geom, 0, 0), geom


def random_instance(rng, m=None, k=None, n=None, density=None, values="float"):
    m = m or int(rng.integers(1, 40))
    k = k or int(rng.integers(1, 40))
    n = n or int(rng.integers(1, 40))
    d = density if density is not None else float(rng.uniform(0.02, 0.3))
    ta = random_triplets(m, k, d, rng, values)
    tb = random_triplets(k, n, d, rng, values)
    return ta, tb


class TestComputePsums:
    def test_worked_instance_per_pe(self):
        a_blk, b_blk, _ = worked_blocks()
        grid, stores = psums_with_records(a_blk, b_blk)
        st = stores[0][0]
        assert st.value_psum.tolist() == [5.0, 10.0, 42.0]
        assert st.col_idx_psum.tolist() == [0, 1, 1]
        assert st.row_len.tolist() == [2, 1]
        assert st.vc_addr[0, :2].tolist() == [0, 1]
        assert st.vc_addr[1, :1].tolist() == [2]
        assert stores[1][1].value_psum.tolist() == [12.0]
        assert stores[0][1].id_psum == 0
        assert stores[1][0].id_psum == 0
        assert grid.appended_products == 4

    def test_empty_a_block(self):
        a = to_csc(TripletMatrix(4, 4, []))
        b = to_csr(TripletMatrix(4, 4, [(0, 0, 1.0)]))
        geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
        _, stores = psums_with_records(encode_rp_csc(a, geom, 0, 0),
                                       encode_cp_csr(b, geom, 0, 0))
        assert all(st.id_psum == 0 for row in stores for st in row)

    def test_one_by_one(self):
        a = to_csc(TripletMatrix(1, 1, [(0, 0, 2.0)]))
        b = to_csr(TripletMatrix(1, 1, [(0, 0, 3.0)]))
        geom = make_geometry(plan_of(1, 1, 1), (1, 1, 1), (1, 1))
        _, stores = psums_with_records(encode_rp_csc(a, geom, 0, 0),
                                       encode_cp_csr(b, geom, 0, 0))
        st = stores[0][0]
        assert st.value_psum.tolist() == [6.0]
        assert st.row_len.tolist() == [1]

    def test_inner_block_mismatch_rejected(self):
        a_blk, _, geom = worked_blocks()
        other = to_csr(TripletMatrix(8, 4, [(5, 0, 1.0)]))
        geom2 = make_geometry(plan_of(2, 4, 2), (4, 8, 4), (2, 2))
        b_far = encode_cp_csr(other, geom2, 1, 0)
        with pytest.raises(DimensionError):
            compute_psums(a_blk, b_far)

    def test_directory_invariants_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ta, tb = random_instance(rng)
            geom = make_geometry(plan_of(int(rng.integers(1, 6)),
                                         int(rng.integers(1, 6)),
                                         int(rng.integers(1, 6))),
                                 (ta.n_rows, ta.n_cols, tb.n_cols), (2, 2))
            for bk in range(geom.t_k):
                a_blk = encode_rp_csc(to_csc(ta), geom, 0, bk)
                b_blk = encode_cp_csr(to_csr(tb), geom, bk, 0)
                _, stores = psums_with_records(
                    a_blk, b_blk, HardwareConfig(c_psum=10 ** 9, s=10 ** 6))
                for row in stores:
                    for st in row:
                        validate_psum_store(st)


class TestAddressMap:
    def test_fig_style_sort_accumulate(self):
        # row0's addresses interleave with row1's: fetch order (0,2,3) maps
        # to columns (1,0,1); stable sort gives address order (2,0,3) and the
        # two column-1 psums accumulate.
        st = lone_store(2, 4, 16, rows=[0, 1, 0, 0], cols=[1, 1, 0, 1],
                        vals=[2.0 * 3.0,          # addr0 row0 col1
                              1.0 * 5.0,          # addr1 row1 col1
                              4.0 * 1.0, 4.0 * 1.0])  # addr2,3 row0 cols 0,1
        assert st.vc_addr[0, :3].tolist() == [0, 2, 3]
        out = address_map(st)
        assert out.row.tolist() == [0, 0, 1]
        assert out.col.tolist() == [0, 1, 1]
        assert out.value.tolist() == [4.0, 2.0 * 3.0 + 4.0, 5.0]

    def test_worked_instance(self):
        a_blk, b_blk, _ = worked_blocks()
        _, stores = psums_with_records(a_blk, b_blk)
        out = address_map(stores[0][0])
        assert list(zip(out.row.tolist(), out.col.tolist(),
                        out.value.tolist())) == [(0, 0, 5.0), (0, 1, 10.0),
                                                 (1, 1, 42.0)]

    def test_empty_store(self):
        st = lone_store(3, 2, 4, rows=[], cols=[], vals=[])
        assert address_map(st).nnz == 0

    def test_columns_strictly_increasing_and_sums_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ta, tb = random_instance(rng)
            geom = make_geometry(plan_of(ta.n_rows, ta.n_cols, tb.n_cols),
                                 (ta.n_rows, ta.n_cols, tb.n_cols), (1, 1))
            _, stores = psums_with_records(
                encode_rp_csc(to_csc(ta), geom, 0, 0),
                encode_cp_csr(to_csr(tb), geom, 0, 0),
                HardwareConfig(c_psum=10 ** 9, s=10 ** 6))
            st = stores[0][0]
            out = address_map(st)
            for r in np.unique(out.row):
                cols = out.col[out.row == r]
                assert np.all(np.diff(cols) > 0)
                row_sum = float(out.value[out.row == r].sum())
                stored = float(st.value_psum[st.vc_addr[r, :st.row_len[r]]].sum())
                assert row_sum == pytest.approx(stored, rel=1e-12)

    def test_dump_store_golden(self):
        a_blk, b_blk, _ = worked_blocks()
        _, stores = psums_with_records(a_blk, b_blk)
        assert dump_psum_store(stores[0][0]) == (
            "kind=psum_store\n"
            "id_psum=3\n"
            "value_psum=5.0,10.0,42.0\n"
            "col_idx_psum=0,1,1\n"
            "row_len_psum=2,1\n"
            "vc_addr[0]=0,1\n"
            "vc_addr[1]=2\n")


class TestMerge:
    def test_trivial_merge(self):
        p1 = OutputBlock(np.array([0]), np.array([0]), np.array([1.0]))
        p2 = OutputBlock(np.array([0, 1]), np.array([0, 1]),
                         np.array([2.0, 3.0]))
        out = merge_output_blocks([p1, p2])
        assert out.row.tolist() == [0, 1]
        assert out.col.tolist() == [0, 1]
        assert out.value.tolist() == [3.0, 3.0]

    def test_single_input_identity(self):
        p = OutputBlock(np.array([2]), np.array([3]), np.array([4.5]))
        out = merge_output_blocks([p])
        assert out.row.tolist() == [2] and out.value.tolist() == [4.5]

    def test_empty(self):
        assert merge_output_blocks([]).nnz == 0

    def test_k_split_equals_unsplit(self):
        # oracle: dense product of the block pair
        rng = np.random.default_rng(21)
        for _ in range(10):
            ta, tb = random_instance(rng, values="int")
            m, k, n = ta.n_rows, ta.n_cols, tb.n_cols
            k_t = int(rng.integers(1, k + 1))
            geom = make_geometry(plan_of(m, k_t, n), (m, k, n), (1, 1))
            parts = []
            for bk in range(geom.t_k):
                _, stores = psums_with_records(
                    encode_rp_csc(to_csc(ta), geom, 0, bk),
                    encode_cp_csr(to_csr(tb), geom, bk, 0),
                    HardwareConfig(c_psum=10 ** 9, s=10 ** 6))
                st = stores[0][0]
                out = address_map(st)
                if out.nnz:
                    parts.append(out)
            merged = merge_output_blocks(parts)
            oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
            got = np.zeros_like(oracle)
            got[merged.row, merged.col] = merged.value
            assert np.array_equal(got, oracle)

    def test_permutation_and_regrouping_invariance(self):
        rng = np.random.default_rng(33)
        blocks = []
        for _ in range(6):
            nnz = int(rng.integers(1, 8))
            rows = np.sort(rng.integers(0, 3, nnz))
            cols = rng.integers(0, 3, nnz)
            t = canonicalize(3, 3, [(int(r), int(c), float(v)) for r, c, v in
                                    zip(rows, cols, rng.uniform(-1, 1, nnz))])
            blocks.append(OutputBlock(
                np.array([e[0] for e in t.entries], dtype=np.int64),
                np.array([e[1] for e in t.entries], dtype=np.int64),
                np.array([e[2] for e in t.entries])))
        ref = merge_output_blocks(blocks)
        perm = merge_output_blocks(blocks[::-1])
        regroup = merge_output_blocks(
            [merge_output_blocks(blocks[:3]), merge_output_blocks(blocks[3:])])
        for other in (perm, regroup):
            assert np.array_equal(ref.row, other.row)
            assert np.array_equal(ref.col, other.col)
            assert np.array_equal(ref.value, other.value)  # bit-exact


    @pytest.mark.parametrize("run, want", [
        ([1e308, 1e308], np.inf),
        ([-1e308, -1e308], -np.inf),
        ([1e308, 1e308, -1e308], 1e308),  # only a partial sum overflows
        ([np.inf, 1.0, -np.inf], np.nan),
        ([1e308, 1e308, -np.inf], -np.inf),
        ([1e308, 1e308, np.nan], np.nan),
        ([np.inf, 1e308, 1e308], np.inf),
    ])
    def test_run_fsum_rejects_takes_the_rounded_exact_sum(self, run, want):
        # every value lands on one coordinate, one block each
        parts = [OutputBlock(np.array([1]), np.array([2]), np.array([v]))
                 for v in run]
        out = merge_output_blocks(parts)
        assert out.row.tolist() == [1] and out.col.tolist() == [2]
        np.testing.assert_array_equal(out.value, [want])

    def test_run_past_the_double_range_matches_the_held_path(self):
        # the same overflowing product, summed in one store (k_t = 2) or
        # merged across two k blocks (k_t = 1), as the dense product gives
        a = to_csc(TripletMatrix(1, 2, [(0, 0, 1e200), (0, 1, 1e200)]))
        b = to_csr(TripletMatrix(2, 1, [(0, 0, 1e108), (1, 0, 1e108)]))
        for k_t in (1, 2):
            with np.errstate(over="ignore"):  # the held sum overflows
                result, _ = run(Workload(a, b), plan_of(1, k_t, 1),
                                HardwareConfig(s=4), "ssmm")
            assert result.value.tolist() == [np.inf]


class TestAssemble:
    def test_worked_instance_matches_oracle(self):
        # the held block puts store (1, 1)'s psum at (1 * m_t, 1 * n_t)
        a_blk, b_blk, geom = worked_blocks()
        c = assemble_output(compute_psums(a_blk, b_blk).held, geom)
        expect = [(0, 0, 5.0), (0, 1, 10.0), (1, 1, 42.0), (2, 2, 12.0)]
        from iohp.matrices import to_triplets
        assert to_triplets(c).entries == expect

    def test_empty_grid(self):
        _, _, geom = worked_blocks()
        c = assemble_output(OutputBlock.empty(), geom)
        assert c.nnz == 0 and (c.n_rows, c.n_cols) == (4, 4)
        assert c.value.dtype == np.float64 and c.row_idx.dtype == np.int64

    def test_single_pe_zero_offsets(self):
        geom = make_geometry(plan_of(4, 4, 4), (4, 4, 4), (1, 1))
        blk = OutputBlock(np.array([1]), np.array([2]), np.array([7.0]))
        c = assemble_output(blk, geom)
        assert to_dense(c).data[1, 2] == 7.0

    def test_later_tile_offsets_and_bounds(self):
        # a later tile's spilled and held psums land at its global offset
        a = to_csc(TripletMatrix(4, 4, [(3, 0, 2.0), (3, 1, 5.0)]))
        b = to_csr(TripletMatrix(4, 4, [(0, 3, 1.0), (1, 3, 3.0)]))
        c = run(Workload(a, b), plan_of(1, 4, 1),
                HardwareConfig(c_psum=1, g_na=2, g_nb=2), "ssmm")[0]
        assert to_dense(c).data[3, 3] == 17.0 and c.nnz == 1
        _, _, geom = worked_blocks()
        for row, col in ((4, 0), (0, 4), (-1, 0)):
            blk = OutputBlock(np.array([row]), np.array([col]), np.array([7.0]))
            with pytest.raises(MalformedBlockError, match="exceeds the 4x4"):
                assemble_output(blk, geom)


class TestSdmm:
    def test_single_outer_product(self):
        a = to_csc(TripletMatrix(2, 1, [(0, 0, 2.0)]))
        geom = make_geometry(plan_of(2, 1, 2), (2, 1, 2), (1, 1))
        a_blk = encode_rp_csc(a, geom, 0, 0)
        b = DenseMatrix.from_rows([[3.0, 4.0]])
        grid = sdmm_compute(a_blk, b, geom, 0)
        assert grid.strip.tolist() == [[6.0, 8.0], [0.0, 0.0]]
        assert grid.macs == 2
        assert grid.compute_cycles == 1 * 2

    def test_empty_a(self):
        a = to_csc(TripletMatrix(2, 2, []))
        geom = make_geometry(plan_of(2, 2, 2), (2, 2, 2), (1, 1))
        a_blk = encode_rp_csc(a, geom, 0, 0)
        grid = sdmm_compute(a_blk, DenseMatrix.zeros(2, 2), geom, 0)
        assert not grid.strip.any()
        assert grid.macs == 0 and grid.compute_cycles == 0

    def test_repeated_cell_accumulation(self):
        # three non-empty A columns, 2x2 output, one cell hit twice
        a = to_csc(canonicalize(2, 4, [(0, 0, 1.0), (0, 3, 2.0), (1, 1, 3.0)]))
        b = random_dense(4, 2, np.random.default_rng(2))
        geom = make_geometry(plan_of(2, 4, 2), (2, 4, 2), (1, 1))
        a_blk = encode_rp_csc(a, geom, 0, 0)
        assert a_blk.col_all_len == 3
        grid = sdmm_compute(a_blk, b, geom, 0)
        oracle = dense_matmul(to_dense(a), b).data
        assert np.allclose(grid.strip, oracle, rtol=1e-12, atol=0)

    def test_dense_rows_bounds(self):
        # A names inner index 2, which a two-row dense operand lacks
        a = to_csc(TripletMatrix(2, 3, [(0, 2, 1.0)]))
        geom = make_geometry(plan_of(2, 3, 2), (2, 3, 2), (1, 1))
        a_blk = encode_rp_csc(a, geom, 0, 0)
        with pytest.raises(GatherError, match="has 2 rows; column index 2"):
            sdmm_compute(a_blk, DenseMatrix.zeros(2, 2), geom, 0)


class TestSpmm:
    def test_worked_instance_exact(self):
        ta = TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)])
        tb = TripletMatrix(4, 4, [(0, 0, 1.0), (0, 1, 2.0), (1, 2, 4.0),
                                  (2, 1, 6.0)])
        c = run(Workload(to_csc(ta), to_csr(tb)), plan_of(2, 4, 2),
                HardwareConfig(g_na=2, g_nb=2), "ssmm")[0]
        oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
        assert np.array_equal(to_dense(c).data, oracle)

    def test_identity_times_b(self):
        rng = np.random.default_rng(4)
        eye = canonicalize(5, 5, [(i, i, 1.0) for i in range(5)])
        tb = random_triplets(5, 7, 0.4, rng)
        c = run(Workload(to_csc(eye), to_csr(tb)), plan_of(2, 3, 2),
                HardwareConfig(g_na=2, g_nb=2), "ssmm")[0]
        assert np.array_equal(to_dense(c).data, to_dense(tb).data)

    def test_mode_equivalence(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ta, _ = random_instance(rng)
            b_dense = random_dense(ta.n_cols, int(rng.integers(1, 20)), rng)
            plan = plan_of(int(rng.integers(1, 8)), int(rng.integers(1, 8)),
                           int(rng.integers(1, 8)))
            dense_out = run(Workload(to_csc(ta), b_dense), plan,
                            HardwareConfig(g_na=2, g_nb=2), "sdmm")[0]
            from iohp.matrices import to_triplets
            sparse_b = to_csr(to_triplets(b_dense))
            sparse_out = run(Workload(to_csc(ta), sparse_b), plan,
                             HardwareConfig(g_na=2, g_nb=2), "ssmm")[0]
            assert np.allclose(to_dense(sparse_out).data, dense_out.data,
                               rtol=1e-9, atol=1e-12)

    def test_mac_count_law(self):
        # law: sum_k nnz(A[:,k]) * nnz(B[k,:])
        rng = np.random.default_rng(12)
        for _ in range(10):
            ta, tb = random_instance(rng)
            a, b = to_csc(ta), to_csr(tb)
            law = int(a.nnz_per_column() @ b.nnz_per_row())
            geom = make_geometry(plan_of(3, 5, 3),
                                 (ta.n_rows, ta.n_cols, tb.n_cols), (2, 2))
            total = 0
            for m in range(geom.t_m):
                for n in range(geom.t_n):
                    for k in range(geom.t_k):
                        grid = compute_psums(encode_rp_csc(a, geom, m, k),
                                             encode_cp_csr(b, geom, k, n))
                        total += grid.appended_products
            assert total == law

    def test_dimension_mismatch(self):
        ta = TripletMatrix(2, 3, [(0, 0, 1.0)])
        tb = TripletMatrix(4, 2, [(0, 0, 1.0)])
        with pytest.raises(DimensionError):
            run(Workload(to_csc(ta), to_csr(tb)), plan_of(1, 1, 1),
                HardwareConfig(), "ssmm")


class TestSpillPath:
    def adversarial(self):
        # one dense A row crossing a tiny psum store
        k = 12
        ta = canonicalize(2, k, [(0, j, 1.0 + j) for j in range(k)])
        tb = canonicalize(k, 3, [(j, c, 1.0) for j in range(k)
                                 for c in range(3)])
        return ta, tb

    def test_spill_triggers_and_result_correct(self):
        ta, tb = self.adversarial()
        plan = plan_of(2, 12, 3)
        cfg = HardwareConfig(c_psum=4, overflow_policy="spill", g_na=1, g_nb=1)
        c = run(Workload(to_csc(ta), to_csr(tb)), plan, cfg, "ssmm")[0]
        oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
        assert np.array_equal(to_dense(c).data, oracle)
        # count spills via direct grid run
        geom = make_geometry(plan, (2, 12, 3), (1, 1))
        grid = compute_psums(encode_rp_csc(to_csc(ta), geom, 0, 0),
                             encode_cp_csr(to_csr(tb), geom, 0, 0), cfg)
        assert grid.spill_events >= 1

    def test_fail_policy_raises(self):
        ta, tb = self.adversarial()
        cfg = HardwareConfig(c_psum=4, overflow_policy="fail", g_na=1, g_nb=1)
        with pytest.raises(PsumOverflowError):
            run(Workload(to_csc(ta), to_csr(tb)), plan_of(2, 12, 3), cfg,
                "ssmm")

    def test_fail_names_the_blocks_own_tile(self):
        ones = TripletMatrix(2, 2, [(r, c, 1.0) for r in range(2)
                                    for c in range(2)])
        geom = make_geometry(plan_of(1, 2, 1), (2, 2, 2), (1, 1))
        cfg = HardwareConfig(c_psum=1, overflow_policy="fail", g_na=1, g_nb=1)
        with pytest.raises(PsumOverflowError) as err:
            compute_psums(encode_rp_csc(to_csc(ones), geom, 1, 0),
                          encode_cp_csr(to_csr(ones), geom, 0, 1), cfg)
        assert str(err.value) == ("psum overflow at tile (1, 1, 0): "
                                  "id_psum=1, capacity=1, segment size=1")

    def test_segment_overflow_spills(self):
        # row segment tighter than total capacity
        ta, tb = self.adversarial()
        cfg = HardwareConfig(c_psum=1000, s=2, overflow_policy="spill", g_na=1,
                             g_nb=1)
        c = run(Workload(to_csc(ta), to_csr(tb)), plan_of(2, 12, 3), cfg,
                "ssmm")[0]
        oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
        assert np.array_equal(to_dense(c).data, oracle)


class TestOracleEquivalenceSmall:
    def test_random_small_exact_integers(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            ta, tb = random_instance(rng, values="int")
            plan = plan_of(int(rng.integers(1, 10)), int(rng.integers(1, 10)),
                           int(rng.integers(1, 10)))
            c = run(Workload(to_csc(ta), to_csr(tb)), plan,
                    HardwareConfig(g_na=2, g_nb=2), "ssmm")[0]
            oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
            assert np.array_equal(to_dense(c).data, oracle)

    def test_random_small_float_tolerance(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            ta, tb = random_instance(rng)
            plan = plan_of(int(rng.integers(1, 10)), int(rng.integers(1, 10)),
                           int(rng.integers(1, 10)))
            c = run(Workload(to_csc(ta), to_csr(tb)), plan,
                    HardwareConfig(g_na=3, g_nb=3), "ssmm")[0]
            oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
            assert np.allclose(to_dense(c).data, oracle, rtol=1e-9, atol=1e-12)


class TestAppendProducts:
    def test_repeated_row_gets_one_slot_per_product(self):
        # the outer product of A entries (0, 1.0), (0, 2.0) and B entries
        # (0, 3.0), (1, 4.0), in (A entry, B entry) order
        st = lone_store(2, 4, 16, rows=[0, 0, 0, 0], cols=[0, 1, 0, 1],
                        vals=np.multiply.outer([1.0, 2.0], [3.0, 4.0]).ravel())
        assert st.id_psum == 4
        assert st.row_len.tolist() == [4, 0]
        assert st.vc_addr[0].tolist() == [0, 1, 2, 3]
        validate_psum_store(st)
        out = address_map(st)
        assert out.row.tolist() == [0, 0]
        assert out.col.tolist() == [0, 1]
        assert out.value.tolist() == [1.0 * 3.0 + 2.0 * 3.0, 1.0 * 4.0 + 2.0 * 4.0]
