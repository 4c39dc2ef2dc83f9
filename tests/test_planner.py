import dataclasses
import math
import time

import numpy as np
import pytest

from iohp import planner
from iohp.errors import DegenerateInputError, InfeasibleError
from iohp.planner import (HardwareConfig, PartitionPlan, WorkloadSpec,
                          _buffer_loads, _name_violation, _tile_candidates,
                          dram_access, plan_partition)


def brute_force_min_cost(cfg: HardwareConfig, wl: WorkloadSpec):
    """Independent enumerator over the raw tile-count lattice."""
    best = None
    for tm in range(1, wl.m + 1):
        m_t = math.ceil(wl.m / (cfg.g_na * tm))
        t_m = math.ceil(wl.m / (cfg.g_na * m_t))
        for tk in range(1, wl.k + 1):
            k_t = math.ceil(wl.k / tk)
            t_k = math.ceil(wl.k / k_t)
            for tn in range(1, wl.n + 1):
                n_t = math.ceil(wl.n / (cfg.g_nb * tn))
                t_n = math.ceil(wl.n / (cfg.g_nb * n_t))
                ok = (m_t * k_t * wl.d_a < cfg.c_a * cfg.r_x
                      and k_t * n_t * wl.d_b < cfg.c_b * cfg.r_x
                      and m_t * wl.d_a * n_t * wl.d_b * k_t
                      < cfg.c_psum * cfg.r_x)
                if not ok:
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


def tile_candidates_reference(dim: int, group: int) -> list[tuple[int, int]]:
    """The former candidate loop: each distinct (tile_dim, tile_count) of
    ceil(dim / (group * t)), t >= 1, stepping t to the next smaller tile."""
    out = []
    t = 1
    while t <= dim:
        size = math.ceil(dim / (group * t))
        count = math.ceil(dim / (group * size))
        out.append((size, count))
        if size == 1:
            break
        # smallest t producing a strictly smaller tile
        t = math.ceil(dim / (group * (size - 1)))
    return out


class TestTileCandidates:
    """The candidate arrays against the loop, in the same order."""

    @staticmethod
    def as_pairs(dim, group):
        got = _tile_candidates(dim, group)
        assert got.dtype == np.int64 and got.shape[0] == 2
        return list(zip(*got.tolist()))

    @pytest.mark.parametrize("group", [1, 2, 3, 7, 8, 64])
    def test_every_dim_to_2000(self, group):
        for dim in range(1, 2001):
            assert self.as_pairs(dim, group) == tile_candidates_reference(dim, group)

    @pytest.mark.parametrize("dim", [10 ** 9, 10 ** 9 + 7, 2 ** 31 + 1,
                                     10 ** 10 + 3])
    @pytest.mark.parametrize("group", [1, 8, 64])
    def test_huge_dims(self, dim, group):
        assert self.as_pairs(dim, group) == tile_candidates_reference(dim, group)


def feasible(plan: PartitionPlan, cfg: HardwareConfig, wl: WorkloadSpec) -> bool:
    """Strict buffer-capacity constraints on one tile's expected contents."""
    if min(plan.m_t, plan.k_t, plan.n_t) <= 0:
        return False
    return all(load < bound for load, bound in
               _buffer_loads(plan.m_t, plan.k_t, plan.n_t, cfg, wl))


def plan_partition_reference(cfg: HardwareConfig, wl: WorkloadSpec):
    """The planner's former search: every (m_t, k_t, n_t) of the lattice.

    A (m_t, k_t) pair is pruned by ``feasible`` at n_t = 1; every feasible
    trial is costed and compared under the tie key.
    """
    best = None
    best_key = None
    k_tiles = tile_candidates_reference(wl.k, 1)
    n_tiles = tile_candidates_reference(wl.n, cfg.g_nb)
    for m_t, t_m in tile_candidates_reference(wl.m, cfg.g_na):
        for k_t, t_k in k_tiles:
            if not feasible(PartitionPlan(t_m, t_k, 1, m_t, k_t, 1,
                                          "RABE", 0), cfg, wl):
                continue
            for n_t, t_n in n_tiles:
                trial = PartitionPlan(t_m, t_k, t_n, m_t, k_t, n_t, "RABE", 0)
                if not feasible(trial, cfg, wl):
                    continue
                for strategy, cost in dram_access(trial, cfg, wl):
                    key = (cost, t_m * t_k * t_n,
                           ("RAF", "RBF", "RABE").index(strategy),
                           -k_t, -m_t, -n_t)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = dataclasses.replace(trial, strategy=strategy,
                                                   predicted_dram=cost)
    if best is None:
        raise InfeasibleError(_name_violation(cfg, wl))
    return best


def assert_plans_agree(cfg: HardwareConfig, wl: WorkloadSpec):
    try:
        ref = plan_partition_reference(cfg, wl)
    except InfeasibleError as err:
        with pytest.raises(InfeasibleError) as got:
            plan_partition(cfg, wl)
        assert str(got.value) == str(err)
        return
    assert plan_partition(cfg, wl) == ref


def small_cfg(**overrides):
    base = dict(c_a=24, c_b=24, c_psum=16, g_na=2, g_nb=2, r_x=0.75)
    base.update(overrides)
    return HardwareConfig(**base)


class TestHardwareConfig:
    @pytest.mark.parametrize("s", [0, -3])
    def test_rejects_segment_below_one(self, s):
        with pytest.raises(ValueError, match=r"^segment size s must be >= 1$"):
            HardwareConfig(s=s)

    @pytest.mark.parametrize("field", ["bits_value", "bits_index", "bits_len"])
    @pytest.mark.parametrize("bits", [0, -8])
    def test_rejects_bit_width_below_one(self, field, bits):
        with pytest.raises(ValueError, match=r"^stream bit widths must be >= 1$"):
            HardwareConfig(**{field: bits})

    @pytest.mark.parametrize("freq", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_freq_not_positive_and_finite(self, freq):
        with pytest.raises(ValueError,
                           match=r"^freq_hz must be positive and finite$"):
            HardwareConfig(freq_hz=freq)

    def test_rejects_unknown_overflow_policy(self):
        with pytest.raises(ValueError,
                           match=r"^unknown overflow policy 'drop'$"):
            HardwareConfig(overflow_policy="drop")

    def test_store_defaults(self):
        cfg = HardwareConfig(s=1, overflow_policy="fail")
        assert (cfg.s, cfg.overflow_policy) == (1, "fail")
        assert (HardwareConfig().s, HardwareConfig().overflow_policy) == (
            None, "spill")


def sparse_bits(m, k, n, d_a, d_b):
    spec = WorkloadSpec.from_dims(m, k, n, d_a, d_b, HardwareConfig())
    return spec.m_a, spec.m_b


class TestStorageSize:
    """Encoded bits of a sparse operand: entry streams plus one pointer per
    column of A (CSC) or row of B (CSR)."""

    def test_zero_density_pointer_only(self):
        bits_len = HardwareConfig().bits_len
        assert sparse_bits(8, 5, 1, 0.0, 0.0)[0] == 5 * bits_len
        assert sparse_bits(1, 8, 5, 0.0, 0.0)[1] == 8 * bits_len

    def test_formula_instantiation(self):
        # 64/32/16-bit value, index and pointer streams
        assert sparse_bits(4, 4, 1, 0.25, 0.0)[0] == 4 * 96 + 4 * 16 == 448

    def test_adjacency_scale(self):
        got = sparse_bits(2708, 2708, 1, 0.0014, 0.0)[0]
        assert got == pytest.approx(10262 * 96 + 2708 * 16, rel=2e-3)


class TestFeasible:
    def test_zero_density_always_feasible(self):
        cfg = small_cfg()
        wl = WorkloadSpec.from_dims(100, 100, 100, 0.0, 0.0, cfg)
        plan = PartitionPlan(1, 1, 1, 100, 100, 100, "RABE", 0)
        assert feasible(plan, cfg, wl)

    def test_boundary_is_strict(self):
        cfg = HardwareConfig(c_a=4, c_b=100, c_psum=100, r_x=0.5)
        wl = WorkloadSpec.from_dims(4, 4, 4, 0.5, 0.01, cfg)
        plan = PartitionPlan(1, 1, 1, 2, 2, 1, "RABE", 0)
        assert plan.m_t * plan.k_t * wl.d_a == cfg.c_a * cfg.r_x  # exactly equal
        assert not feasible(plan, cfg, wl)

    def test_psum_load_is_formed_left_to_right(self):
        # 9*0.1*10*0.3*10 rounds to 26.999999999999996, 9*10*10*0.1*0.3 to
        # 27.0: the load's operation order decides the strict bound
        cfg = HardwareConfig(c_a=1000, c_b=1000, c_psum=27, g_na=1, g_nb=1,
                             r_x=1.0)
        wl = WorkloadSpec.from_dims(9, 10, 10, 0.1, 0.3, cfg)
        assert feasible(PartitionPlan(1, 1, 1, 9, 10, 10, "RABE", 0), cfg, wl)
        plan = plan_partition(cfg, wl)
        assert (plan.t_m, plan.t_k, plan.t_n, plan.strategy) == (1, 1, 1, "RAF")

    def test_unit_tile_feasible(self):
        cfg = small_cfg()
        wl = WorkloadSpec.from_dims(10, 10, 10, 0.9, 0.9, cfg)
        assert feasible(PartitionPlan(1, 1, 1, 1, 1, 1, "RABE", 0), cfg, wl)


class TestDramAccess:
    def wl_with(self, m_a, m_b, cfg):
        wl = WorkloadSpec.from_dims(4, 4, 4, 0.0, 0.0, cfg)
        import dataclasses
        return dataclasses.replace(wl, m_a=m_a, m_b=m_b)

    def test_single_tile_all_equal(self):
        cfg = small_cfg()
        wl = self.wl_with(100, 200, cfg)
        plan = PartitionPlan(1, 1, 1, 2, 4, 2, "RABE", 0)
        costs = dict(dram_access(plan, cfg, wl))
        assert costs == {"RAF": 300, "RBF": 300, "RABE": 300}

    def test_formula_instantiation(self):
        cfg = small_cfg()
        wl = self.wl_with(100, 200, cfg)
        plan = PartitionPlan(3, 1, 2, 1, 4, 1, "RABE", 0)
        costs = dict(dram_access(plan, cfg, wl))
        assert costs["RAF"] == 200 * 3 + 100 == 700
        assert costs["RBF"] == 100 * 2 + 200 == 400
        assert costs["RABE"] == 100 * 2 + 200 * 3 == 800
        assert min(costs, key=costs.get) == "RBF"

    def test_residency_is_strict(self):
        # a strip of m_t*K*d_a = 2*8*0.25 = 4.0 == c_a*r_x does not stay resident
        cfg = HardwareConfig(c_a=8, c_b=8, c_psum=1000, r_x=0.5)
        wl = WorkloadSpec.from_dims(8, 8, 8, 0.25, 0.25, cfg)
        plan = PartitionPlan(2, 4, 2, 2, 2, 2, "RABE", 0)
        assert [s for s, _ in dram_access(plan, cfg, wl)] == ["RABE"]

    def test_condition_a_gates_raf(self):
        cfg = HardwareConfig(c_a=4, c_b=1000, c_psum=1000, r_x=0.5)
        wl = WorkloadSpec.from_dims(8, 8, 8, 0.5, 0.001, cfg)
        plan = PartitionPlan(2, 2, 1, 1, 4, 8, "RABE", 0)
        # strip residency m_t*K*d_a = 4 >= 2 fails
        strategies = [s for s, _ in dram_access(plan, cfg, wl)]
        assert "RAF" not in strategies
        assert "RABE" in strategies


class TestPlanPartition:
    def test_on_chip_workload_single_tile(self):
        cfg = small_cfg()
        wl = WorkloadSpec.from_dims(4, 4, 4, 0.1, 0.1, cfg)
        plan = plan_partition(cfg, wl)
        assert (plan.t_m, plan.t_k, plan.t_n) == (1, 1, 1)
        assert plan.predicted_dram == wl.m_a + wl.m_b
        assert plan.strategy == "RAF"  # tie-break at equal cost

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            cfg = small_cfg(c_a=int(rng.integers(4, 40)),
                            c_b=int(rng.integers(4, 40)),
                            c_psum=int(rng.integers(2, 30)))
            wl = WorkloadSpec.from_dims(int(rng.integers(1, 24)),
                                        int(rng.integers(1, 24)),
                                        int(rng.integers(1, 24)),
                                        float(rng.uniform(0, 0.6)),
                                        float(rng.uniform(0, 0.6)), cfg)
            oracle = brute_force_min_cost(cfg, wl)
            if oracle is None:
                with pytest.raises(InfeasibleError):
                    plan_partition(cfg, wl)
                continue
            plan = plan_partition(cfg, wl)
            assert plan.predicted_dram == oracle
            assert feasible(plan, cfg, wl)

    def test_returned_plan_satisfies_extra_condition(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            cfg = small_cfg(c_a=int(rng.integers(6, 50)),
                            c_b=int(rng.integers(6, 50)),
                            c_psum=int(rng.integers(4, 40)))
            wl = WorkloadSpec.from_dims(int(rng.integers(2, 20)),
                                        int(rng.integers(2, 20)),
                                        int(rng.integers(2, 20)),
                                        float(rng.uniform(0, 0.4)),
                                        float(rng.uniform(0, 0.4)), cfg)
            try:
                plan = plan_partition(cfg, wl)
            except InfeasibleError:
                continue
            if plan.strategy == "RAF":
                assert plan.m_t * wl.k * wl.d_a < cfg.c_a * cfg.r_x
            if plan.strategy == "RBF":
                assert plan.n_t * wl.k * wl.d_b < cfg.c_b * cfg.r_x

    def test_adjacency_times_features_reuses_a_first(self):
        # sparse-dominated product: square 0.14% adjacency against 1.27%
        # features, planned for the dense-psum mode's doubled store
        cfg = HardwareConfig().sdmm_variant()
        wl = WorkloadSpec.from_dims(2708, 2708, 1433, 0.0014, 0.0127, cfg)
        plan = plan_partition(cfg, wl)
        assert plan.strategy == "RAF"
        assert plan.k_t == wl.k  # whole inner dimension stays resident
        assert plan.t_m == 1
        assert plan.predicted_dram == wl.m_a + wl.m_b

    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            cfg = small_cfg(c_a=int(rng.integers(4, 30)),
                            c_b=int(rng.integers(4, 30)),
                            c_psum=int(rng.integers(2, 20)))
            wl = WorkloadSpec.from_dims(int(rng.integers(2, 20)),
                                        int(rng.integers(2, 20)),
                                        int(rng.integers(2, 20)),
                                        float(rng.uniform(0, 0.5)),
                                        float(rng.uniform(0, 0.5)), cfg)
            try:
                base = plan_partition(cfg, wl).predicted_dram
            except InfeasibleError:
                continue
            import dataclasses
            for field in ("c_a", "c_b", "c_psum"):
                grown = dataclasses.replace(cfg, **{field: getattr(cfg, field) * 2})
                assert plan_partition(grown, wl).predicted_dram <= base

    def test_tm1_tie_prefers_raf_over_rabe(self):
        cfg = small_cfg(c_a=1000, c_b=1000, c_psum=1000)
        wl = WorkloadSpec.from_dims(6, 6, 6, 0.3, 0.3, cfg)
        plan = plan_partition(cfg, wl)
        assert plan.t_m == 1
        # DrA_0 == DrA_2 at t_m = t_n = 1; RAF wins the tie
        assert plan.strategy == "RAF"

    def test_infeasible_names_constraint(self):
        cfg = HardwareConfig(c_a=1, c_b=1000, c_psum=1000, r_x=0.5)
        wl = WorkloadSpec.from_dims(4, 4, 4, 0.9, 0.1, cfg)
        with pytest.raises(InfeasibleError, match=r"constraint \(1\)"):
            plan_partition(cfg, wl)
        cfg3 = HardwareConfig(c_a=1000, c_b=1000, c_psum=1, r_x=0.5)
        wl3 = WorkloadSpec.from_dims(4, 4, 4, 0.9, 0.9, cfg3)
        with pytest.raises(InfeasibleError, match=r"constraint \(3\)"):
            plan_partition(cfg3, wl3)


class TestPlanMatchesReference:
    """The (m_t, n_t) search with a bisected k_t against the triple loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_sweep(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            # each buffer either 1-8 slots or large; grids 1-64
            caps = [int(rng.integers(1, 9)) if rng.random() < 0.4
                    else int(rng.integers(9, 4097)) for _ in range(3)]
            cfg = HardwareConfig(c_a=caps[0], c_b=caps[1], c_psum=caps[2],
                                 g_na=int(rng.integers(1, 65)),
                                 g_nb=int(rng.integers(1, 65)),
                                 r_x=float(rng.choice([0.5, 0.75, 1.0,
                                                       rng.uniform(0.01, 1)])))
            b_dense = bool(rng.random() < 0.3)
            if b_dense:
                cfg = cfg.sdmm_variant()
            d_a, d_b = (float(rng.choice([0.0, 1.0, rng.uniform(0, 0.01),
                                          rng.uniform(0, 1)]))
                        for _ in range(2))
            wl = WorkloadSpec.from_dims(*(int(d) for d in rng.integers(1, 601, 3)),
                                        d_a, d_b, cfg, b_dense=b_dense)
            assert_plans_agree(cfg, wl)

    def test_exact_boundary(self):
        # m_t*k_t*d_a == c_a*r_x at m_t = k_t = 2: strict, so infeasible there
        cfg = HardwareConfig(c_a=4, c_b=100, c_psum=100, r_x=0.5)
        wl = WorkloadSpec.from_dims(4, 4, 4, 0.5, 0.01, cfg)
        assert_plans_agree(cfg, wl)
        assert_plans_agree(cfg.with_grid(1, 1), wl)

    @pytest.mark.parametrize("caps", [(1, 1000, 1000), (1000, 1, 1000),
                                      (1000, 1000, 1)])
    def test_infeasible_at_unit_tiles(self, caps):
        # each case breaks a different one of the three constraints
        cfg = HardwareConfig(c_a=caps[0], c_b=caps[1], c_psum=caps[2], r_x=0.5)
        assert_plans_agree(cfg, WorkloadSpec.from_dims(5, 6, 7, 0.9, 0.9, cfg))

    def test_large_ssmm(self):
        cfg = HardwareConfig()
        assert_plans_agree(cfg, WorkloadSpec.from_dims(2000, 2000, 2000, 0.002,
                                                       0.002, cfg))

    @pytest.mark.parametrize("seed", range(8))
    def test_ssmm_sdmm_sweep(self, seed):
        # 8 x 250 specs, two in five of them SDMM (dense B, doubled psum store)
        rng = np.random.default_rng(1000 + seed)
        for i in range(250):
            caps = [int(rng.integers(1, 9)) if rng.random() < 0.3
                    else int(rng.integers(9, 8193)) for _ in range(3)]
            cfg = HardwareConfig(c_a=caps[0], c_b=caps[1], c_psum=caps[2],
                                 g_na=int(rng.integers(1, 65)),
                                 g_nb=int(rng.integers(1, 65)),
                                 r_x=float(rng.choice([0.5, 0.75, 1.0,
                                                       rng.uniform(0.01, 1)])))
            b_dense = i % 5 < 2
            if b_dense:
                cfg = cfg.sdmm_variant()
            dims = (int(d) for d in np.exp(rng.uniform(0, np.log(800), 3)))
            d_a, d_b = (float(rng.choice([0.0, 1.0, 10 ** rng.uniform(-5, 0),
                                          rng.uniform(0, 1)])) for _ in range(2))
            assert_plans_agree(cfg, WorkloadSpec.from_dims(*dims, d_a, d_b, cfg,
                                                           b_dense=b_dense))

    @pytest.mark.parametrize("seed", range(2))
    def test_batch_like_specs(self, seed):
        # concrete products as the small-batch workload draws them: dims
        # 1-256, densities 0.1-10 % log-uniform, the default machine
        cfg = HardwareConfig()
        rng = np.random.default_rng(2000 + seed)
        for _ in range(250):
            m, k, n = (int(d) for d in rng.integers(1, 257, 3))
            d_a, d_b = 10.0 ** rng.uniform(-3, -1, 2)
            assert_plans_agree(cfg, WorkloadSpec.from_counts(
                m, k, n, round(m * k * d_a), round(k * n * d_b), cfg))

    # the four dense-B products of the Cora-sized two-layer GCN chain
    @pytest.mark.parametrize("m, k, n, d_a", [(2708, 1433, 16, 0.0127),
                                              (2708, 2708, 16, 0.0014),
                                              (2708, 16, 7, 1.0),
                                              (2708, 2708, 7, 0.0014)])
    def test_gcn_steps(self, m, k, n, d_a):
        cfg = HardwareConfig().sdmm_variant()
        assert_plans_agree(cfg, WorkloadSpec.from_dims(m, k, n, d_a, 1.0, cfg,
                                                       b_dense=True))


class TestLatticeBlocks:
    """The lattice is costed in blocks of at most ``_CHUNK_CELLS`` trials."""

    @pytest.mark.parametrize("cells", [1, 7, 300])
    def test_any_block_size_plans_alike(self, cells, monkeypatch):
        # one cell per block costs each (m_t, n_t) pair on its own
        monkeypatch.setattr(planner, "_CHUNK_CELLS", cells)
        rng = np.random.default_rng(cells)
        for i in range(40):
            cfg = HardwareConfig(c_a=int(rng.integers(4, 2049)),
                                 c_b=int(rng.integers(4, 2049)),
                                 c_psum=int(rng.integers(2, 257)),
                                 g_na=int(rng.integers(1, 9)),
                                 g_nb=int(rng.integers(1, 9)))
            wl = WorkloadSpec.from_dims(*(int(d) for d in rng.integers(1, 300, 3)),
                                        float(rng.uniform(0, 0.3)),
                                        float(rng.uniform(0, 0.3)), cfg,
                                        b_dense=i % 3 == 0)
            assert_plans_agree(cfg.sdmm_variant() if i % 3 == 0 else cfg, wl)

    def test_huge_m_plans_in_bounded_time(self, monkeypatch):
        # about 70 000 m candidates: the lattice spans several blocks
        cfg = HardwareConfig()
        wl = WorkloadSpec.from_dims(10**10, 100, 100, 0.01, 0.01, cfg)
        start = time.perf_counter()
        plan = plan_partition(cfg, wl)
        assert time.perf_counter() - start < 2.0
        monkeypatch.setattr(planner, "_CHUNK_CELLS", 4096)
        assert plan_partition(cfg, wl) == plan

    def test_costs_past_int64_raise_before_the_search(self):
        # m = 2**62 has about 10**9 m candidates: only the bound stops it
        cfg = HardwareConfig()
        wl = WorkloadSpec.from_dims(2**62, 100, 100, 0.01, 0.01, cfg)
        with pytest.raises(DegenerateInputError,
                           match=r"\(m, k, n\)=\(4611686018427387904, 100, 100\)"
                           r" needs .* past int64$"):
            plan_partition(cfg, wl)

    @pytest.mark.parametrize("m_b, fits", [(2**62 - 2, True), (2**62 - 1, False)])
    def test_int64_bound_is_exact(self, m_b, fits):
        # one tile: every cost is m_a + m_b; 2**63 - 1 marks an unoffered strategy
        cfg = HardwareConfig()
        wl = dataclasses.replace(WorkloadSpec.from_dims(4, 4, 4, 0.1, 0.1, cfg),
                                 m_a=2**62, m_b=m_b)
        if fits:
            assert plan_partition(cfg, wl).predicted_dram == 2**63 - 2
            assert_plans_agree(cfg, wl)
        else:
            with pytest.raises(DegenerateInputError, match="past int64"):
                plan_partition(cfg, wl)


def root_plan(cfg: HardwareConfig, wl: WorkloadSpec) -> PartitionPlan:
    """The unit-count trial: one strip of A, one of B, all of k."""
    return PartitionPlan(1, 1, 1, -(-wl.m // cfg.g_na), wl.k,
                         -(-wl.n // cfg.g_nb), "RAF", wl.m_a + wl.m_b)


class TestRootTrial:
    """A product whose unit-count trial fits is planned without the lattice,
    and a trial on or past any of the three strict bounds is not."""

    @pytest.fixture
    def lattice_calls(self, monkeypatch):
        calls = []
        cheapest = planner._cheapest

        def counted(*args):
            calls.append(args)
            return cheapest(*args)
        monkeypatch.setattr(planner, "_cheapest", counted)
        return calls

    @pytest.fixture
    def no_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the lattice was costed")
        monkeypatch.setattr(planner, "_cheapest", refuse)

    def test_fitting_batch_like_specs(self, no_lattice):
        # the small-batch workload's draws: dims 1-256, densities 0.1-10 %
        cfg = HardwareConfig()
        rng = np.random.default_rng(3200)
        fitting = 0
        for _ in range(500):
            m, k, n = (int(d) for d in rng.integers(1, 257, 3))
            d_a, d_b = 10.0 ** rng.uniform(-3, -1, 2)
            wl = WorkloadSpec.from_counts(m, k, n, round(m * k * d_a),
                                          round(k * n * d_b), cfg)
            if feasible(root_plan(cfg, wl), cfg, wl):
                fitting += 1
                assert plan_partition(cfg, wl) == plan_partition_reference(cfg, wl)
        assert fitting > 400

    @pytest.mark.parametrize("dims, d_a, d_b, b_dense", [
        ((64, 32, 8), 0.05, 1.0, True),  # SDMM, doubled psum store
        ((200, 200, 200), 0.0, 0.05, False),
        ((200, 200, 200), 0.05, 0.0, False)])
    def test_sdmm_and_zero_density_specs(self, no_lattice, dims, d_a, d_b,
                                         b_dense):
        cfg = HardwareConfig().sdmm_variant() if b_dense else HardwareConfig()
        wl = WorkloadSpec.from_dims(*dims, d_a, d_b, cfg, b_dense=b_dense)
        plan = plan_partition(cfg, wl)
        assert plan == root_plan(cfg, wl) == plan_partition_reference(cfg, wl)

    # 8 x 8 x 8 on a 1 x 1 grid, r_x = 0.5: every load is exact in binary, so
    # the root's A load is nnz_a, its B load nnz_b, its psum load nnz_a·nnz_b/8
    @pytest.mark.parametrize("caps, nnz, lattice", [
        ((40, 1000, 10**6), (19, 30), False),  # A: 19 < 20
        ((40, 1000, 10**6), (20, 30), True),   # A: on the bound
        ((40, 1000, 10**6), (21, 30), True),   # one entry past it
        ((1000, 40, 10**6), (30, 19), False),  # B: 19 < 20
        ((1000, 40, 10**6), (30, 20), True),
        ((1000, 40, 10**6), (30, 21), True),
        ((1000, 1000, 64), (16, 15), False),   # psum: 30 < 32
        ((1000, 1000, 64), (16, 16), True),    # 32, on the bound
        ((1000, 1000, 64), (16, 17), True)])   # 34
    def test_strict_bounds_at_the_root(self, lattice_calls, caps, nnz, lattice):
        cfg = HardwareConfig(c_a=caps[0], c_b=caps[1], c_psum=caps[2],
                             g_na=1, g_nb=1, r_x=0.5)
        wl = WorkloadSpec.from_counts(8, 8, 8, *nnz, cfg)
        loads = _buffer_loads(8, 8, 8, cfg, wl)
        assert [load for load, _ in loads] == [nnz[0], nnz[1], nnz[0] * nnz[1] / 8]
        assert all(load < bound for load, bound in loads) is not lattice
        assert_plans_agree(cfg, wl)
        assert bool(lattice_calls) is lattice


class TestPlanSerialization:
    def test_text_roundtrip(self):
        plan = PartitionPlan(2, 3, 4, 10, 20, 5, "RBF", 123456)
        assert PartitionPlan.from_text(plan.to_text()) == plan

    def test_text_is_one_field_per_line(self):
        text = PartitionPlan(1, 1, 1, 2, 2, 2, "RAF", 99).to_text()
        assert text.splitlines() == ["t_m=1", "t_k=1", "t_n=1", "m_t=2",
                                     "k_t=2", "n_t=2", "strategy=RAF",
                                     "predicted_dram=99"]
