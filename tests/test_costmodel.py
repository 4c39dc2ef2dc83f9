import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

import iohp.costmodel
from iohp.costmodel import CSV_COLUMNS, StageTrace, Workload, run
from iohp.encoding import encode_cp_csr, encode_rp_csc, make_geometry
from iohp.engine import compute_psums, fill_grid, sdmm_compute
from iohp.matrices import (DenseMatrix, TripletMatrix, canonicalize, to_csc,
                           to_csr, to_dense, to_triplets)
from iohp.planner import HardwareConfig, PartitionPlan, plan_partition
from iohp.synthetic import random_dense, random_triplets
from test_golden_reports import SPILL_CFG, _tiled_plan
from test_matrices_reference import dense_matmul


def plan_of(m_t, k_t, n_t, strategy="RABE"):
    return PartitionPlan(1, 1, 1, m_t, k_t, n_t, strategy, 0)


def mac_law(a, b):
    """Nonzero products: each column of A meets the same row of B."""
    row_nnz = (np.count_nonzero(b.data, axis=1) if isinstance(b, DenseMatrix)
               else np.diff(b.row_ptr))
    return int(np.diff(a.col_ptr) @ row_nnz)


def worked_blocks():
    a = to_csc(TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)]))
    b = to_csr(TripletMatrix(4, 4, [(0, 0, 1.0), (0, 1, 2.0), (1, 2, 4.0),
                                    (2, 1, 6.0)]))
    geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
    return encode_rp_csc(a, geom, 0, 0), encode_cp_csr(b, geom, 0, 0), geom


class TestComputeCycles:
    def test_worked_instance(self):
        a_blk, b_blk, _ = worked_blocks()
        # k=0 busiest PE does 1*2 products, k=1 and k=2 do 1 each
        assert compute_psums(a_blk, b_blk).compute_cycles == 4

    def test_empty_pair(self):
        a = to_csc(TripletMatrix(4, 4, []))
        b = to_csr(TripletMatrix(4, 4, []))
        geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
        assert compute_psums(encode_rp_csc(a, geom, 0, 0),
                             encode_cp_csr(b, geom, 0, 0)).compute_cycles == 0

    def test_unmatched_column_costs_one(self):
        a = to_csc(TripletMatrix(4, 4, [(0, 0, 1.0)]))
        b = to_csr(TripletMatrix(4, 4, []))
        geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
        assert compute_psums(encode_rp_csc(a, geom, 0, 0),
                             encode_cp_csr(b, geom, 0, 0)).compute_cycles == 1

    def test_bounds_against_mac_law(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            m = int(rng.integers(1, 30))
            k = int(rng.integers(1, 30))
            n = int(rng.integers(1, 30))
            ta = random_triplets(m, k, float(rng.uniform(0.05, 0.4)), rng)
            tb = random_triplets(k, n, float(rng.uniform(0.05, 0.4)), rng)
            g = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            geom = make_geometry(plan_of(max(1, m // g[0]), k,
                                         max(1, n // g[1])), (m, k, n), g)
            a_blk = encode_rp_csc(to_csc(ta), geom, 0, 0)
            b_blk = encode_cp_csr(to_csr(tb), geom, 0, 0)
            cycles = compute_psums(a_blk, b_blk).compute_cycles
            macs = int(np.diff(to_csc(ta).col_ptr) @ np.diff(to_csr(tb).row_ptr))
            matched = len(np.intersect1d(a_blk.col_idx, b_blk.row_idx))
            skipped = (a_blk.col_all_len - matched) + (b_blk.row_all_len - matched)
            width = geom.g_na * geom.g_nb
            assert cycles >= math.ceil(macs / width)
            assert cycles <= macs + skipped


class TestAddrmapCycles:
    def grid_with_rows(self, row_lens_per_pe):
        # PE i's row r takes ln = row_lens_per_pe[i][r] products, to columns
        # 0..ln-1, all filled at once into one row of PEs
        lens = np.array(row_lens_per_pe)
        n_pe, m_t = lens.shape
        pe = np.repeat(np.arange(n_pe), lens.sum(axis=1))
        rows = np.repeat(np.tile(np.arange(m_t), n_pe), lens.ravel())
        cols = np.concatenate([np.arange(ln) for ln in lens.ravel()])
        grid, _ = fill_grid(pe, rows, cols, np.ones(len(rows)),
                            (1, n_pe, m_t, 16), 16, 256)
        return grid

    def test_empty_grid(self):
        grid = self.grid_with_rows([[0]])
        assert grid.addrmap_cycles == 0

    def test_single_row_of_three(self):
        # one insert per index, one fetch per value, one row setup: 2*3 + 1
        assert self.grid_with_rows([[3]]).addrmap_cycles == 7

    def test_concurrent_pes_take_max(self):
        assert self.grid_with_rows([[3], [1]]).addrmap_cycles == 7

    def test_multi_row_sum_within_pe(self):
        assert self.grid_with_rows([[2, 1]]).addrmap_cycles == (5 + 3)


class TestSimulate:
    def small_workload(self, rng, values="float"):
        m, k, n = (int(rng.integers(2, 30)) for _ in range(3))
        ta = random_triplets(m, k, float(rng.uniform(0.05, 0.35)), rng, values)
        tb = random_triplets(k, n, float(rng.uniform(0.05, 0.35)), rng, values)
        return Workload(to_csc(ta), to_csr(tb))

    def test_single_tile_reads_everything_once(self):
        cfg = HardwareConfig(c_a=10 ** 6, c_b=10 ** 6, c_psum=10 ** 6,
                             g_na=2, g_nb=2)
        rng = np.random.default_rng(1)
        wl = self.small_workload(rng)
        spec = wl.spec(cfg)
        plan = plan_partition(cfg, spec)
        assert (plan.t_m, plan.t_k, plan.t_n) == (1, 1, 1)
        stats = run(wl, plan, cfg, "ssmm")[1]
        assert stats.dram.bits_input_read == spec.m_a + spec.m_b
        assert stats.dram.bits_input_read == plan.predicted_dram

    def test_input_bits_match_strategy_formula(self):
        # oracle: direct DrA formula per strategy
        rng = np.random.default_rng(3)
        for _ in range(12):
            cfg = HardwareConfig(c_a=int(rng.integers(8, 60)),
                                 c_b=int(rng.integers(8, 60)),
                                 c_psum=int(rng.integers(8, 60)),
                                 g_na=2, g_nb=2)
            wl = self.small_workload(rng)
            spec = wl.spec(cfg)
            try:
                plan = plan_partition(cfg, spec)
            except Exception:
                continue
            stats = run(wl, plan, replace(cfg, c_psum=10 ** 9, s=10 ** 6),
                        "ssmm")[1]
            assert stats.spill_events == 0
            formula = {
                "RAF": spec.m_b * plan.t_m + spec.m_a,
                "RBF": spec.m_a * plan.t_n + spec.m_b,
                "RABE": spec.m_a * plan.t_n + spec.m_b * plan.t_m,
            }[plan.strategy]
            assert stats.dram.bits_input_read == formula
            assert stats.dram.bits_input_read == plan.predicted_dram

    def test_achieved_macs_equals_law(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            cfg = HardwareConfig(c_a=40, c_b=40, c_psum=30, g_na=2, g_nb=2)
            wl = self.small_workload(rng)
            law = mac_law(wl.a, wl.b)
            try:
                plan = plan_partition(cfg, wl.spec(cfg))
            except Exception:
                continue
            stats = run(wl, plan, cfg, "ssmm")[1]
            assert stats.achieved_macs == law

    def test_sdmm_stats(self):
        rng = np.random.default_rng(7)
        cfg = HardwareConfig(g_na=2, g_nb=2)
        ta = random_triplets(12, 9, 0.2, rng)
        b = random_dense(9, 6, rng)
        wl = Workload(to_csc(ta), b)
        plan = plan_partition(cfg.sdmm_variant(), wl.spec(cfg.sdmm_variant()))
        result, stats = run(wl, plan, cfg, "sdmm")
        assert stats.addrmap_cycles == 0
        assert stats.spill_events == 0
        assert stats.dram.bits_psum_spill == 0
        oracle = dense_matmul(to_dense(ta), b).data
        assert np.allclose(result.data, oracle, rtol=1e-9, atol=1e-12)
        assert stats.achieved_macs == mac_law(wl.a, b)

    def test_sdmm_never_slower_than_ssmm_on_same_structure(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            ta = random_triplets(10, 8, 0.25, rng)
            b = random_dense(8, 6, rng)
            cfg = HardwareConfig(c_a=10 ** 6, c_b=10 ** 6, c_psum=10 ** 6,
                                 g_na=2, g_nb=2)
            plan = plan_of(5, 8, 3)
            sdmm_stats = run(Workload(to_csc(ta), b), plan, cfg, "sdmm")[1]
            sparse_b = to_csr(to_triplets(b))
            ssmm_stats = run(Workload(to_csc(ta), sparse_b), plan,
                             replace(cfg, c_psum=10 ** 9, s=10 ** 6), "ssmm")[1]
            assert sdmm_stats.addrmap_cycles == 0
            assert sdmm_stats.total_cycles <= ssmm_stats.total_cycles

    def test_peak_throughput_default_grid(self):
        cfg = HardwareConfig()
        rng = np.random.default_rng(13)
        wl = self.small_workload(rng)
        plan = plan_partition(cfg, wl.spec(cfg))
        stats = run(wl, plan, cfg, "ssmm")[1]
        assert stats.peak_macs_per_cycle == 64
        assert stats.peak_macs_per_sec == 51.2e9

    def test_utilizations_in_range(self):
        rng = np.random.default_rng(17)
        cfg = HardwareConfig(c_a=20, c_b=20, c_psum=12, g_na=2, g_nb=2)
        wl = self.small_workload(rng)
        try:
            plan = plan_partition(cfg, wl.spec(cfg))
        except Exception:
            pytest.skip("infeasible draw")
        stats = run(wl, plan, cfg, "ssmm")[1]
        for u in (stats.buffer_utilization_a, stats.buffer_utilization_b,
                  stats.buffer_utilization_psum):
            assert 0.0 <= u <= 1.0

    def test_pipeline_total_is_bottleneck_sum_plus_fill_drain(self):
        rng = np.random.default_rng(19)
        cfg = HardwareConfig(c_a=30, c_b=30, c_psum=20, g_na=2, g_nb=2)
        wl = self.small_workload(rng)
        plan = plan_partition(cfg, wl.spec(cfg))
        stats = run(wl, plan, cfg, "ssmm")[1]
        expect = sum(t.bottleneck for t in stats.traces)
        expect += stats.traces[0].encode_cycles + stats.traces[-1].addrmap_cycles
        assert stats.total_cycles == expect

    def test_csv_row_matches_columns(self):
        cfg = HardwareConfig(g_na=2, g_nb=2)
        rng = np.random.default_rng(23)
        wl = self.small_workload(rng)
        plan = plan_partition(cfg, wl.spec(cfg))
        stats = run(wl, plan, cfg, "ssmm")[1]
        row = stats.csv_row("wl").split(",")
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == "wl" and row[1] == "ssmm"
        text = stats.to_text("wl")
        for key in ("total_cycles", "bytes_A", "util_psum", "macs",
                    "peak_macs_per_cycle"):
            assert f"{key}=" in text


class TestStageTraces:
    """Every pass's trace is its engine grid's costs, recorded once."""

    def traced(self, monkeypatch, wl, plan, cfg, mode):
        grids = []

        def recording(engine_fn):
            def call(*args, **kwargs):
                grids.append(engine_fn(*args, **kwargs))
                return grids[-1]
            return call
        for name in ("compute_psums", "sdmm_compute"):
            monkeypatch.setattr(iohp.costmodel, name,
                                recording(getattr(iohp.costmodel, name)))
        return run(wl, plan, cfg, mode)[1], grids

    def test_ssmm_traces_equal_their_grids(self, monkeypatch):
        rng = np.random.default_rng(29)
        ta = random_triplets(12, 10, 0.4, rng)
        tb = random_triplets(10, 9, 0.4, rng)
        cfg = HardwareConfig(c_psum=3, s=2, g_na=2, g_nb=2)
        stats, grids = self.traced(monkeypatch, Workload(to_csc(ta), to_csr(tb)),
                                   plan_of(3, 4, 2), cfg, "ssmm")
        assert len(stats.traces) == len(grids) > 1
        assert sum(g.spill_events > 0 for g in grids) > 1
        for trace, grid in zip(stats.traces, grids, strict=True):
            assert (trace.compute_cycles, trace.addrmap_cycles,
                    trace.spill_events) == (grid.compute_cycles,
                                            grid.addrmap_cycles,
                                            grid.spill_events)
        assert stats.spill_events == sum(g.spill_events for g in grids)

    def test_sdmm_traces_equal_their_grids(self, monkeypatch):
        rng = np.random.default_rng(31)
        ta = random_triplets(12, 10, 0.3, rng)
        cfg = HardwareConfig(g_na=2, g_nb=2)
        stats, grids = self.traced(monkeypatch,
                                   Workload(to_csc(ta), random_dense(10, 7, rng)),
                                   plan_of(3, 4, 2), cfg, "sdmm")
        assert len(stats.traces) == len(grids) > 1
        for trace, grid in zip(stats.traces, grids, strict=True):
            assert (trace.compute_cycles, trace.addrmap_cycles,
                    trace.spill_events) == (grid.compute_cycles, 0, 0)
            assert (grid.addrmap_cycles, grid.spill_events) == (0, 0)


ROOMY = replace(SPILL_CFG, c_a=10 ** 6, c_b=10 ** 6, c_psum=10 ** 9, s=10 ** 6)


class TestPassRecords:
    """``StageTrace`` is the one per-pass record: every ``SimStats`` total but
    the C write is one reduction over ``stats.traces``."""

    def test_record_holds_only_what_a_total_reads(self):
        assert [f.name for f in dataclasses.fields(StageTrace)] == [
            "encode_cycles", "compute_cycles", "addrmap_cycles",
            "spill_events", "macs", "bits_a", "bits_b", "bits_spill",
            "fill_a", "fill_b", "fill_psum"]

    @pytest.mark.parametrize("strategy", ["RAF", "RBF", "RABE"])
    @pytest.mark.parametrize("mode, roomy", [("ssmm", False), ("ssmm", True),
                                             ("sdmm", False)])
    def test_totals_are_reductions_over_records(self, strategy, mode, roomy):
        rng = np.random.default_rng(37)
        a = to_csc(random_triplets(37, 29, 0.12, rng))
        b = (to_csr(random_triplets(29, 41, 0.12, rng)) if mode == "ssmm"
             else random_dense(29, 19, rng))
        wl = Workload(a, b)
        plan = _tiled_plan(wl, ROOMY, (10, 8, 4), strategy)  # all resident
        stats = run(wl, plan, ROOMY if roomy else SPILL_CFG, mode)[1]
        records = stats.traces
        assert min(plan.t_m, plan.t_k, plan.t_n) > 1

        def total(name):
            return sum(getattr(t, name) for t in records)

        def util(name):
            return float(np.mean([min(1.0, getattr(t, name)) for t in records]))

        assert stats.total_cycles == (sum(t.bottleneck for t in records)
                                      + records[0].encode_cycles
                                      + records[-1].addrmap_cycles)
        for name in ("encode_cycles", "compute_cycles", "addrmap_cycles",
                     "spill_events"):
            assert getattr(stats, name) == total(name)
        assert stats.achieved_macs == total("macs") == mac_law(a, b)
        assert (stats.dram.bits_a_read, stats.dram.bits_b_read,
                stats.dram.bits_psum_spill) == (total("bits_a"), total("bits_b"),
                                                total("bits_spill"))
        assert (stats.buffer_utilization_a, stats.buffer_utilization_b,
                stats.buffer_utilization_psum) == (util("fill_a"), util("fill_b"),
                                                   util("fill_psum"))
        # input reads are the strategy's prediction; spills add only to
        # the spill stream
        assert (stats.spill_events > 0) == (mode == "ssmm" and not roomy)
        assert total("bits_a") + total("bits_b") == stats.predicted_dram_bits

    def test_fill_past_capacity_is_kept_unclamped(self):
        # one 4 x 4 A block of 16 entries against c_a = 4: the record keeps
        # the overfill that the report's utilisation clamps to 1
        full = [(r, c, 1.0 + r + c) for r in range(4) for c in range(4)]
        a, b = to_csc(TripletMatrix(4, 4, full)), to_csr(TripletMatrix(4, 4, full))
        stats = run(Workload(a, b), plan_of(2, 4, 2),
                    HardwareConfig(c_a=4, g_na=2, g_nb=2), "ssmm")[1]
        assert [t.fill_a for t in stats.traces] == [4.0]
        assert "util_A=1\n" in stats.to_text()


def one_tile_stats(a, b, mode="ssmm", g=2):
    """Stats of a run whose single tile holds the whole product."""
    cfg = HardwareConfig(c_a=10 ** 6, c_b=10 ** 6, c_psum=10 ** 9, s=10 ** 6,
                         g_na=g, g_nb=g)
    plan = plan_of(-(-a.n_rows // g), a.n_cols, -(-b.n_cols // g))
    return run(Workload(a, b), plan, cfg, mode)[1]


class TestBaselineCounters:
    """The hybrid product's MAC and load counts against the dense and
    private-outer baselines."""

    def test_dense_two_cubed(self):
        t = canonicalize(2, 2, [(i, j, 1.0) for i in range(2) for j in range(2)])
        assert one_tile_stats(to_csc(t), to_csr(t)).achieved_macs == 2 ** 3

    def test_diagonal_against_dense(self):
        n = 6
        diag = canonicalize(n, n, [(i, i, 2.0) for i in range(n)])
        dense = canonicalize(n, n, [(i, j, 1.0) for i in range(n)
                                    for j in range(n)])
        macs = one_tile_stats(to_csc(diag), to_csr(dense)).achieved_macs
        assert macs == n * n < n ** 3

    def test_empty_a(self):
        a = to_csc(TripletMatrix(3, 4, []))
        b = to_csr(canonicalize(4, 5, [(0, 0, 1.0)]))
        assert one_tile_stats(a, b).achieved_macs == 0

    def test_group_shared_loads(self):
        # every stream is loaded once whatever the grid: a private outer
        # product would load A g_nb times and B g_na times
        t = canonicalize(4, 4, [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)])
        cfg = HardwareConfig()
        once = 6 * (cfg.bits_value + cfg.bits_index) + 2 * 4 * cfg.bits_len
        for g in (1, 2, 4):
            stats = one_tile_stats(to_csc(t), to_csr(t), g=g)
            assert stats.dram.bits_input_read == once

    def test_dense_b_counts_nonzeros(self):
        a = to_csc(canonicalize(2, 2, [(0, 0, 1.0), (1, 1, 1.0)]))
        b = DenseMatrix.from_rows([[1.0, 0.0], [2.0, 3.0]])
        assert one_tile_stats(a, b, "sdmm").achieved_macs == 1 * 1 + 1 * 2


class TestSdmmComputeCycles:
    def test_column_model(self):
        a = to_csc(canonicalize(4, 3, [(0, 0, 1.0), (1, 0, 1.0), (2, 2, 1.0)]))
        geom = make_geometry(plan_of(2, 3, 2), (4, 3, 4), (2, 2))
        a_blk = encode_rp_csc(a, geom, 0, 0)
        zeros = DenseMatrix(3, 4, np.zeros((3, 4)))
        grid = sdmm_compute(a_blk, zeros, geom, 0)
        # columns 0 (busiest group has 2 entries) and 2 (1 entry), width 2
        assert grid.compute_cycles == (2 + 1) * 2


def test_dense_strips_past_the_double_range_add_silently():
    # k_t = 1: each k pass's strip holds 1e308 and their sum in the dense
    # result overflows; numpy's warnings are errors here
    a = to_csc(canonicalize(2, 2, [(i, j, 1e200) for i in range(2)
                                   for j in range(2)]))
    b = DenseMatrix.from_rows([[1e108, 1e108], [1e108, 1e108]])
    result, stats = run(Workload(a, b), plan_of(2, 1, 2), HardwareConfig(
        g_na=1, g_nb=1), "sdmm")
    assert stats.t_k == 2
    assert np.isposinf(result.data).all()
