"""Metamorphic relations of the SSMM model, as seeded property tests.

Power-of-two value scaling: running (4·A, 0.5·B) instead of (A, B) leaves
every modelled number as it was and doubles the result exactly.  Each
product 4a·0.5b is exactly 2ab, and a left fold of doubled terms is the
doubled fold, away from overflow and underflow
(values lie in [-1, 1), and no product or sum nears the subnormal range).
The cases spill and split k, so the run-wide merge sums runs of three or
more terms.

A consistent permutation of k (A's columns and B's rows alike) under a
plan with one k tile: the same products meet in another order, so every
modelled number and every pass record stays as it was whenever neither run
spills.  A spill is cut from the product order, so a spilling run may
differ; the result keeps its pattern, and its values move only by the
rounding of a reordered fold.

The transpose mirror: ``Bᵀ·Aᵀ`` under the mirrored plan (RAF and RBF
swapped, m_t and n_t swapped) on the mirrored config (g_na and g_nb, c_a and
c_b swapped) reads the same blocks and forms the same products, so its
encode and compute cycles, MACs, input bits and predicted DRAM are the
original's.  A psum store's rows are A's rows, so the address map, the
spills and the spilled results are not mirrored.

The strategy: RAF, RBF and RABE with the same tiles run the same passes in
another order, and each coordinate's partial sums still arrive in k order
(a pass's flushes in fill order, then its held psums), so the result is
byte-identical under all three, whether or not the stores spill.

The mode: one B gives one product whether it runs as CSR under SSMM or
dense under SDMM, each planned as the CLI plans it.  Integer values sum
exactly in any order, so the results are bit-identical; float results agree
to the rounding of a reordered fold.  A canonical B with no stored zero has
as many nonzero dense cells as stored entries, so both modes count the same
MACs.  A B that stores a coordinate twice is densified as the left fold of
its values; SSMM multiplies each stored entry, so only the values compare.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from iohp.cli import _run_one
from iohp.costmodel import Workload, run
from iohp.matrices import TripletMatrix, canonicalize, to_csc, to_csr, to_dense
from iohp.planner import HardwareConfig, PartitionPlan, dram_access
from iohp.synthetic import random_triplets


@st.composite
def spilling_cases(draw, values: str = "float"):
    """Operands, a plan with t_k > 1 and a config whose stores overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, n = (draw(st.integers(8, 40)) for _ in range(2))
    k = draw(st.integers(8, 60))
    density = draw(st.floats(0.2, 0.5))
    a = to_csc(random_triplets(m, k, density, rng, values))
    b = to_csr(random_triplets(k, n, density, rng, values))
    plan = PartitionPlan(1, 1, 1, draw(st.integers(1, m)),
                         draw(st.integers(1, k // 2)), draw(st.integers(1, n)),
                         draw(st.sampled_from(["RAF", "RBF", "RABE"])), 0)
    cfg = HardwareConfig(c_psum=draw(st.integers(1, 4)),
                         s=draw(st.sampled_from([None, 1, 2])),
                         g_na=draw(st.integers(1, 3)),
                         g_nb=draw(st.integers(1, 3)))
    return a, b, plan, cfg


def scaled(m, factor: float):
    return dataclasses.replace(m, value=m.value * factor)


@seed(13)
@settings(max_examples=60, deadline=None, database=None)
@given(spilling_cases())
def test_power_of_two_scaling_doubles_the_result_and_keeps_the_model(case):
    a, b, plan, cfg = case
    result, stats = run(Workload(a, b), plan, cfg, "ssmm")
    assert stats.t_k > 1
    assume(stats.spill_events > 0)
    result4, stats4 = run(Workload(scaled(a, 4.0), scaled(b, 0.5)), plan, cfg,
                          "ssmm")
    assert stats4 == stats
    assert stats4.to_text() == stats.to_text()
    assert result4.row_idx.tobytes() == result.row_idx.tobytes()
    assert result4.col_ptr.tobytes() == result.col_ptr.tobytes()
    assert result4.value.tobytes() == (2.0 * result.value).tobytes()


def result_bytes(result) -> tuple:
    return tuple(x.tobytes() for x in (result.value, result.row_idx,
                                       result.col_ptr))


@seed(23)
@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(["float", "int"]).flatmap(spilling_cases))
def test_results_do_not_depend_on_the_strategy(case):
    a, b, plan, cfg = case
    results = set()
    for strategy in ("RAF", "RBF", "RABE"):
        result, stats = run(Workload(a, b),
                            dataclasses.replace(plan, strategy=strategy), cfg,
                            "ssmm")
        assert stats.t_k >= 2
        results.add(result_bytes(result))
    assume(stats.spill_events > 0)  # the same passes spill under each
    assert len(results) == 1


@st.composite
def k_permuted_cases(draw):
    """Operands, a plan with t_k = 1 and roomy stores, and A and B with k
    permuted alike."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, n = (draw(st.integers(4, 30)) for _ in range(2))
    k = draw(st.integers(2, 40))
    density = draw(st.floats(0.05, 0.4))
    ta, tb = random_triplets(m, k, density, rng), random_triplets(k, n, density, rng)
    perm = rng.permutation(k)
    a, b = to_csc(ta), to_csr(tb)
    a_perm = to_csc(canonicalize(m, k, arrays=(ta.rows, perm[ta.cols], ta.vals)))
    b_perm = to_csr(canonicalize(k, n, arrays=(perm[tb.rows], tb.cols, tb.vals)))
    plan = PartitionPlan(1, 1, 1, draw(st.integers(1, m)), k,
                         draw(st.integers(1, n)),
                         draw(st.sampled_from(["RAF", "RBF", "RABE"])), 0)
    cfg = HardwareConfig(c_psum=draw(st.integers(64, 2048)),
                         s=draw(st.sampled_from([None, 16, 64])),
                         g_na=draw(st.integers(1, 3)),
                         g_nb=draw(st.integers(1, 3)))
    return (a, b), (a_perm, b_perm), plan, cfg


@seed(17)
@settings(max_examples=60, deadline=None, database=None)
@given(k_permuted_cases())
def test_permuting_k_keeps_the_model_when_nothing_spills(case):
    (a, b), (a_perm, b_perm), plan, cfg = case
    result, stats = run(Workload(a, b), plan, cfg, "ssmm")
    result_p, stats_p = run(Workload(a_perm, b_perm), plan, cfg, "ssmm")
    assert stats.t_k == 1
    assume(stats.spill_events == stats_p.spill_events == 0)
    assert stats_p == stats
    assert stats_p.traces == stats.traces
    assert stats_p.to_text() == stats.to_text()
    assert result_p.row_idx.tobytes() == result.row_idx.tobytes()
    assert result_p.col_ptr.tobytes() == result.col_ptr.tobytes()
    np.testing.assert_allclose(result_p.value, result.value, rtol=1e-12,
                               atol=1e-15)


MIRROR = {"RAF": "RBF", "RBF": "RAF", "RABE": "RABE"}


def transposed(t):
    return canonicalize(t.n_cols, t.n_rows, arrays=(t.cols, t.rows, t.vals))


@st.composite
def mirrored_cases(draw):
    """Operands, a plan and a config, and their mirrors; the stores range
    from roomy to a few slots, so some runs spill."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, k, n = (draw(st.integers(2, 40)) for _ in range(3))
    ta = random_triplets(m, k, draw(st.floats(0.05, 0.5)), rng)
    tb = random_triplets(k, n, draw(st.floats(0.05, 0.5)), rng)
    m_t, k_t, n_t = (draw(st.integers(1, d)) for d in (m, k, n))
    strategy = draw(st.sampled_from(["RAF", "RBF", "RABE"]))
    cfg = HardwareConfig(c_a=draw(st.integers(1, 2048)),
                         c_b=draw(st.integers(1, 2048)),
                         c_psum=draw(st.sampled_from([2, 8, 256])),
                         s=draw(st.sampled_from([None, 2, 64])),
                         g_na=draw(st.integers(1, 3)), g_nb=draw(st.integers(1, 3)))
    cfg_t = dataclasses.replace(cfg, g_na=cfg.g_nb, g_nb=cfg.g_na, c_a=cfg.c_b,
                                c_b=cfg.c_a)
    plan = PartitionPlan(-(-m // (cfg.g_na * m_t)), -(-k // k_t),
                         -(-n // (cfg.g_nb * n_t)), m_t, k_t, n_t, strategy, 0)
    plan_t = PartitionPlan(plan.t_n, plan.t_k, plan.t_m, n_t, k_t, m_t,
                           MIRROR[strategy], 0)
    return ((Workload(to_csc(ta), to_csr(tb)), plan, cfg),
            (Workload(to_csc(transposed(tb)), to_csr(transposed(ta))), plan_t,
             cfg_t))


@seed(19)
@settings(max_examples=60, deadline=None, database=None)
@given(mirrored_cases())
def test_transpose_mirror_keeps_the_model_but_the_address_map(case):
    (workload, plan, cfg), (workload_t, plan_t, cfg_t) = case
    costs = dict(dram_access(plan, cfg, workload.spec(cfg)))
    costs_t = dict(dram_access(plan_t, cfg_t, workload_t.spec(cfg_t)))
    assert costs_t == {MIRROR[name]: cost for name, cost in costs.items()}
    _, stats = run(workload, plan, cfg, "ssmm")
    _, stats_t = run(workload_t, plan_t, cfg_t, "ssmm")
    assert (stats_t.t_m, stats_t.t_k, stats_t.t_n) == (stats.t_n, stats.t_k,
                                                        stats.t_m)
    assert stats_t.encode_cycles == stats.encode_cycles
    assert stats_t.compute_cycles == stats.compute_cycles
    assert stats_t.achieved_macs == stats.achieved_macs
    assert stats_t.dram.bits_a_read == stats.dram.bits_b_read
    assert stats_t.dram.bits_b_read == stats.dram.bits_a_read
    # not compared: addrmap_cycles, spill_events, bits_psum_spill and the
    # result's sums, which follow the psum store's rows, A's rows


@st.composite
def mode_cases(draw):
    """A as CSC, B in triplets and a config: float or integer values, none
    zero; input buffers from a few entries (k splits) to roomy and stores
    from a few slots (SSMM spills) to roomy.  Some Bs list a few of their
    coordinates once more, with values of their own."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = draw(st.sampled_from(["float", "int"]))
    m, k, n = (draw(st.integers(2, 30)) for _ in range(3))
    ta = random_triplets(m, k, draw(st.floats(0.05, 0.5)), rng, values)
    tb = random_triplets(k, n, draw(st.floats(0.05, 0.5)), rng, values)
    assume(tb.nnz and np.all(ta.vals != 0) and np.all(tb.vals != 0))
    repeats = draw(st.sampled_from([0, 0, 1, 3]))
    if repeats:
        pick = rng.integers(0, tb.nnz, repeats)
        extra = random_triplets(1, repeats, 1.0, rng, values).vals
        tb = TripletMatrix(k, n, arrays=(np.append(tb.rows, tb.rows[pick]),
                                         np.append(tb.cols, tb.cols[pick]),
                                         np.append(tb.vals, extra)))
    cfg = HardwareConfig(c_a=draw(st.sampled_from([8, 64, 2048])),
                         c_b=draw(st.sampled_from([8, 64, 2048])),
                         c_psum=draw(st.sampled_from([2, 8, 256])),
                         g_na=draw(st.integers(1, 3)), g_nb=draw(st.integers(1, 3)))
    return to_csc(ta), tb, repeats, values, cfg


@seed(29)
@settings(max_examples=60, deadline=None, database=None)
@given(mode_cases())
def test_ssmm_and_sdmm_compute_one_product(case):
    a, tb, repeats, values, cfg = case
    sparse, stats, _ = _run_one(Workload(a, to_csr(tb)), "ssmm", cfg)
    dense, stats_d, _ = _run_one(Workload(a, to_dense(tb)), "sdmm", cfg)
    if values == "int":
        assert to_dense(sparse).data.tobytes() == dense.data.tobytes()
    else:  # a fold of at most 30 terms below 3 in size rounds by under 1e-12
        np.testing.assert_allclose(to_dense(sparse).data, dense.data,
                                   rtol=1e-12, atol=1e-12)
    if not repeats:
        assert stats.achieved_macs == stats_d.achieved_macs


def test_a_repeated_b_coordinate_sums_alike_in_both_modes():
    a = to_csc(TripletMatrix(2, 2, [(0, 0, 1.0), (1, 1, 1.0)]))
    b = TripletMatrix(2, 2, [(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)])
    sparse, _, _ = _run_one(Workload(a, to_csr(b)), "ssmm", HardwareConfig())
    dense, _, _ = _run_one(Workload(a, to_dense(b)), "sdmm", HardwareConfig())
    assert to_dense(sparse).data.tolist() == [[3.0, 0.0], [0.0, 5.0]]
    assert dense.data.tolist() == [[3.0, 0.0], [0.0, 5.0]]
