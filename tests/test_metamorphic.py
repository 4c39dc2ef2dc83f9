"""Metamorphic relations of the SSMM model, as seeded property tests.

Power-of-two value scaling: running (4·A, 0.5·B) instead of (A, B) leaves
every modelled number as it was and doubles the result exactly.  Each
product 4a·0.5b is exactly 2ab, and a left fold or a correctly rounded sum
of doubled terms is the doubled sum, away from overflow and underflow
(values lie in [-1, 1), and no product or sum nears the subnormal range).
The cases spill and split k, so the run-wide merge sums runs of three or
more terms.

A consistent permutation of k (A's columns and B's rows alike) under a
plan with one k tile: the same products meet in another order, so every
modelled number and every pass record stays as it was whenever neither run
spills.  A spill is cut from the product order, so a spilling run may
differ; the result keeps its pattern, and its values move only by the
rounding of a reordered fold.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from iohp.costmodel import Workload, run
from iohp.matrices import canonicalize, to_csc, to_csr
from iohp.planner import HardwareConfig, PartitionPlan
from iohp.synthetic import random_triplets


@st.composite
def spilling_cases(draw):
    """Operands, a plan with t_k > 1 and a config whose stores overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, n = (draw(st.integers(8, 40)) for _ in range(2))
    k = draw(st.integers(8, 60))
    density = draw(st.floats(0.2, 0.5))
    a = to_csc(random_triplets(m, k, density, rng))
    b = to_csr(random_triplets(k, n, density, rng))
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
