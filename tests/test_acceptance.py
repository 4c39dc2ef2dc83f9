"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from iohp.cli import main
from iohp.costmodel import Workload, run
from iohp.encoding import encode_cp_csr, encode_rp_csc, make_geometry
from iohp.engine import compute_psums
from iohp.errors import PsumOverflowError
from iohp.matrices import canonicalize, to_csc, to_csr, to_dense, to_triplets
from iohp.planner import (HardwareConfig, PartitionPlan, WorkloadSpec,
                          plan_partition)
from iohp.synthetic import random_dense, random_triplets
from test_encoding_reference import decode
from test_matrices_reference import dense_matmul
from test_planner import feasible


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def random_pair(rng, max_dim=256, values=None):
    m = int(rng.integers(1, max_dim + 1))
    k = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    density = float(10.0 ** rng.uniform(-3, -1))  # 0.1% .. 10%
    kind = values or ("int" if rng.integers(2) else "float")
    ta = random_triplets(m, k, density, rng, kind)
    tb = random_triplets(k, n, density, rng, kind)
    return ta, tb, kind


def plan_for(wl: Workload, cfg: HardwareConfig, mode: str = "ssmm"):
    plan_cfg = cfg.sdmm_variant() if mode == "sdmm" else cfg
    return plan_partition(plan_cfg, wl.spec(plan_cfg))


def test_criterion_1_and_4_oracle_equivalence_and_mac_law():
    """500 randomized SSMM instances match the dense oracle; product counts
    obey the per-index nnz(A col) * nnz(B row) law."""
    with criterion(1, "oracle equivalence on 500 randomized SSMM instances"):
        cfg = HardwareConfig()
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        mac_law_ok = True
        for i in range(500):
            ta, tb, kind = random_pair(rng)
            a, b = to_csc(ta), to_csr(tb)
            wl = Workload(a, b, f"inst{i}")
            plan = plan_for(wl, cfg)
            result, stats = run(wl, plan, cfg, "ssmm")
            got = to_dense(result).data
            oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
            if kind == "int":
                assert np.array_equal(got, oracle), f"instance {i} (int)"
            else:
                assert np.allclose(got, oracle, rtol=1e-9, atol=1e-12), \
                    f"instance {i} (float)"
            law = int(np.diff(a.col_ptr) @ np.diff(b.row_ptr))
            mac_law_ok &= stats.achieved_macs == law
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
    with criterion(4, "engine product count equals the MAC-count law"):
        assert mac_law_ok


def test_criterion_2_mode_equivalence():
    """SSMM of a sparse-encoded dense B equals SDMM of the dense B."""
    with criterion(2, "SSMM/SDMM mode equivalence on 100 instances"):
        cfg = HardwareConfig()
        rng = np.random.default_rng(77)
        for i in range(100):
            m = int(rng.integers(1, 64))
            k = int(rng.integers(1, 64))
            n = int(rng.integers(1, 32))
            ta = random_triplets(m, k, float(10.0 ** rng.uniform(-2, -0.7)), rng)
            b_dense = random_dense(k, n, rng)
            a = to_csc(ta)
            sdmm_wl = Workload(a, b_dense)
            sdmm_out, _ = run(sdmm_wl, plan_for(sdmm_wl, cfg, "sdmm"), cfg,
                              "sdmm")
            b_sparse = to_csr(to_triplets(b_dense))
            ssmm_wl = Workload(a, b_sparse)
            ssmm_out, _ = run(ssmm_wl, plan_for(ssmm_wl, cfg), cfg, "ssmm")
            assert np.allclose(to_dense(ssmm_out).data, sdmm_out.data,
                               rtol=1e-9, atol=1e-12), f"instance {i}"


def test_criterion_3_encoder_roundtrip():
    """decode(encode(block)) is exact for 200 random blocks of each kind."""
    with criterion(3, "encoder roundtrip identity on 200 random blocks"):
        rng = np.random.default_rng(11)
        for i in range(200):
            m = int(rng.integers(1, 40))
            k = int(rng.integers(1, 40))
            n = int(rng.integers(1, 40))
            g_na = int(rng.integers(1, 5))
            g_nb = int(rng.integers(1, 5))
            plan = PartitionPlan(1, 1, 1, int(rng.integers(1, 10)),
                                 int(rng.integers(1, 10)),
                                 int(rng.integers(1, 10)), "RABE", 0)
            geom = make_geometry(plan, (m, k, n), (g_na, g_nb))
            ta = random_triplets(m, k, float(rng.uniform(0, 0.3)), rng)
            tb = random_triplets(k, n, float(rng.uniform(0, 0.3)), rng)
            da, db = to_dense(ta).data, to_dense(tb).data
            br = int(rng.integers(0, geom.t_m))
            bk = int(rng.integers(0, geom.t_k))
            bc = int(rng.integers(0, geom.t_n))

            blk_a = encode_rp_csc(to_csc(ta), geom, br, bk)
            back = to_dense(decode(blk_a, geom)).data
            r0, r1 = geom.block_rows(br)
            k0, k1 = geom.k_span(bk)
            ref = np.zeros_like(da)
            ref[r0:r1, k0:k1] = da[r0:r1, k0:k1]
            assert np.array_equal(back, ref), f"A block {i}"

            blk_b = encode_cp_csr(to_csr(tb), geom, bk, bc)
            back_b = to_dense(decode(blk_b, geom)).data
            c0, c1 = geom.block_cols(bc)
            ref_b = np.zeros_like(db)
            ref_b[k0:k1, c0:c1] = db[k0:k1, c0:c1]
            assert np.array_equal(back_b, ref_b), f"B block {i}"


def brute_force_min(cfg, wl):
    best = None
    for tm in range(1, wl.m + 1):
        m_t = math.ceil(wl.m / (cfg.g_na * tm))
        t_m = math.ceil(wl.m / (cfg.g_na * m_t))
        for tk in range(1, wl.k + 1):
            k_t = math.ceil(wl.k / tk)
            for tn in range(1, wl.n + 1):
                n_t = math.ceil(wl.n / (cfg.g_nb * tn))
                t_n = math.ceil(wl.n / (cfg.g_nb * n_t))
                if not (m_t * k_t * wl.d_a < cfg.c_a * cfg.r_x
                        and k_t * n_t * wl.d_b < cfg.c_b * cfg.r_x
                        and m_t * wl.d_a * n_t * wl.d_b * k_t
                        < cfg.c_psum * cfg.r_x):
                    continue
                costs = [wl.m_a * t_n + wl.m_b * t_m]
                if m_t * wl.k * wl.d_a < cfg.c_a * cfg.r_x:
                    costs.append(wl.m_b * t_m + wl.m_a)
                if n_t * wl.k * wl.d_b < cfg.c_b * cfg.r_x:
                    costs.append(wl.m_a * t_n + wl.m_b)
                low = min(costs)
                if best is None or low < best:
                    best = low
    return best


def test_criterion_5_planner_optimality():
    """Planner cost equals an independent brute-force minimum; constraints
    hold strictly; capacity growth never raises the cost."""
    with criterion(5, "planner optimality, constraints, and monotonicity"):
        import dataclasses
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 50:
            cfg = HardwareConfig(c_a=int(rng.integers(4, 60)),
                                 c_b=int(rng.integers(4, 60)),
                                 c_psum=int(rng.integers(2, 40)),
                                 g_na=int(rng.integers(1, 4)),
                                 g_nb=int(rng.integers(1, 4)))
            wl = WorkloadSpec.from_dims(int(rng.integers(1, 21)),
                                        int(rng.integers(1, 21)),
                                        int(rng.integers(1, 21)),
                                        float(rng.uniform(0, 0.7)),
                                        float(rng.uniform(0, 0.7)), cfg)
            oracle = brute_force_min(cfg, wl)
            if oracle is None:
                continue
            plan = plan_partition(cfg, wl)
            assert plan.predicted_dram == oracle
            # strict Tab-style constraints (1)-(3)
            assert plan.m_t * plan.k_t * wl.d_a < cfg.c_a * cfg.r_x
            assert plan.k_t * plan.n_t * wl.d_b < cfg.c_b * cfg.r_x
            assert (plan.m_t * wl.d_a * plan.n_t * wl.d_b * plan.k_t
                    < cfg.c_psum * cfg.r_x)
            assert feasible(plan, cfg, wl)
            for f in ("c_a", "c_b", "c_psum"):
                grown = dataclasses.replace(cfg, **{f: getattr(cfg, f) * 4})
                assert plan_partition(grown, wl).predicted_dram \
                    <= plan.predicted_dram
            checked += 1


def test_criterion_6_dram_identity():
    """With no spills, input-read bits equal the chosen strategy's cost
    formula exactly."""
    with criterion(6, "exact DRAM identity on overflow-free runs"):
        rng = np.random.default_rng(66)
        checked = 0
        while checked < 50:
            cfg = HardwareConfig(c_a=int(rng.integers(10, 200)),
                                 c_b=int(rng.integers(10, 200)),
                                 c_psum=int(rng.integers(10, 200)),
                                 g_na=int(rng.integers(1, 5)),
                                 g_nb=int(rng.integers(1, 5)))
            m = int(rng.integers(2, 48))
            k = int(rng.integers(2, 48))
            n = int(rng.integers(2, 48))
            d = float(rng.uniform(0.02, 0.3))
            ta = random_triplets(m, k, d, rng)
            tb = random_triplets(k, n, d, rng)
            wl = Workload(to_csc(ta), to_csr(tb))
            try:
                plan = plan_for(wl, cfg)
            except Exception:
                continue
            stats = run(wl, plan, replace(cfg, c_psum=10 ** 9, s=10 ** 6),
                        "ssmm")[1]
            assert stats.spill_events == 0
            # independent re-derivation of the strategy formulas
            m_a = wl.a.nnz * (64 + 32) + k * 16
            m_b = wl.b.nnz * (64 + 32) + k * 16
            formula = {"RAF": m_b * plan.t_m + m_a,
                       "RBF": m_a * plan.t_n + m_b,
                       "RABE": m_a * plan.t_n + m_b * plan.t_m}[plan.strategy]
            assert stats.dram.bits_input_read == formula
            assert stats.dram.bits_input_read == plan.predicted_dram
            checked += 1


def test_criterion_7_peak_throughput():
    """8x8 grid at 0.8 GHz reports exactly 51.2 G MAC/s."""
    with criterion(7, "peak throughput 51.2 G MAC/s at 8x8, 0.8 GHz"):
        cfg = HardwareConfig()
        assert cfg.g_na * cfg.g_nb == 64
        assert cfg.freq_hz == 800e6
        ta = random_triplets(8, 8, 0.2, np.random.default_rng(1))
        tb = random_triplets(8, 8, 0.2, np.random.default_rng(2))
        wl = Workload(to_csc(ta), to_csr(tb))
        stats = run(wl, plan_for(wl, cfg), cfg, "ssmm")[1]
        assert stats.peak_macs_per_cycle == 64
        assert stats.peak_macs_per_sec == 51.2e9  # exact


def test_criterion_8_gcn_chain(tmp_path):
    """Synthetic 2708-node workload with the published dims/densities runs
    the four-product chain against the dense oracle; adjacency-led steps
    report RAF and nothing spills."""
    with criterion(8, "GCN chain on the 2708-node synthetic workload"):
        start = time.monotonic()
        report = tmp_path / "gcn.csv"
        rc = main(["gcn", "--synthetic", "--nodes", "2708",
                   "--features", "1433", "--hidden", "16", "--classes", "7",
                   "--da", "0.0014", "--dx", "0.0127", "--seed", "42",
                   "--report", str(report)])
        elapsed = time.monotonic() - start
        assert rc == 0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        text = report.read_text()
        assert "# oracle_check=pass" in text
        rows = {}
        for line in text.splitlines():
            if line.startswith("step"):
                cells = line.split(",")
                rows[cells[0]] = cells
        strategy_col = 2
        spill_col = 9
        assert rows["step2_a_xw1"][strategy_col] == "RAF"
        assert rows["step4_a_h1w2"][strategy_col] == "RAF"
        assert all(int(r[spill_col]) == 0 for r in rows.values())


def test_criterion_9_spill_path():
    """A dense A row against a tiny psum store spills under `spill`, still
    matches the oracle, and aborts under `fail`."""
    with criterion(9, "psum overflow spills, stays correct, fails on demand"):
        k = 24
        ta = canonicalize(3, k, [(0, j, float(j + 1)) for j in range(k)]
                          + [(2, 0, 5.0)])
        tb = canonicalize(k, 4, [(j, c, 1.0 + 0.5 * c) for j in range(k)
                                 for c in range(4)])
        plan = PartitionPlan(1, 1, 1, 3, k, 4, "RABE", 0)
        spill_cfg = HardwareConfig(c_psum=5, overflow_policy="spill", g_na=1,
                                   g_nb=1)
        c = run(Workload(to_csc(ta), to_csr(tb)), plan, spill_cfg, "ssmm")[0]
        oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
        assert np.allclose(to_dense(c).data, oracle, rtol=1e-9, atol=1e-12)

        geom = make_geometry(plan, (3, k, 4), (1, 1))
        grid = compute_psums(encode_rp_csc(to_csc(ta), geom, 0, 0),
                             encode_cp_csr(to_csr(tb), geom, 0, 0), spill_cfg)
        assert grid.spill_events >= 1

        with pytest.raises(PsumOverflowError):
            run(Workload(to_csc(ta), to_csr(tb)), plan,
                HardwareConfig(c_psum=5, overflow_policy="fail", g_na=1,
                               g_nb=1), "ssmm")


def test_criterion_10_sweep_sanity(tmp_path):
    """Grid sweep reports peak 16/64/256 MACs/cycle; doubling buffers never
    raises predicted DRAM traffic."""
    with criterion(10, "design-space sweep peaks and buffer monotonicity"):
        grid_report = tmp_path / "grids.csv"
        rc = main(["sweep", "--m", "64", "--k", "64", "--n", "64",
                   "--da", "0.05", "--db", "0.05", "--seed", "9",
                   "--grids", "4,8,16", "--buffer-scales", "1",
                   "--report", str(grid_report)])
        assert rc == 0
        rows = grid_report.read_text().splitlines()
        peaks = [int(r.split(",")[2]) for r in rows[1:]]
        assert peaks == [16, 64, 256]

        scale_report = tmp_path / "scales.csv"
        rc = main(["sweep", "--m", "64", "--k", "64", "--n", "64",
                   "--da", "0.05", "--db", "0.05", "--seed", "9",
                   "--grids", "8", "--buffer-scales", "0.5,1,2",
                   "--report", str(scale_report)])
        assert rc == 0
        lines = scale_report.read_text().splitlines()
        header = lines[0].split(",")
        ia, ib = header.index("bytes_A"), header.index("bytes_B")
        reads = [int(r.split(",")[ia]) + int(r.split(",")[ib])
                 for r in lines[1:]]
        # input reads equal predicted DRAM exactly, so monotonicity carries
        assert all(reads[i] >= reads[i + 1] for i in range(len(reads) - 1))
