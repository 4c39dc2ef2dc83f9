"""One merge-join per tile pass: the engine's join gives a pass both its
products and its lockstep compute cost, which the cost model reads off the
grid instead of walking the join a second time."""

import contextlib
from unittest import mock

import numpy as np
import pytest

import iohp.costmodel
import iohp.engine
from iohp.costmodel import Workload, run
from iohp.encoding import encode_cp_csr, encode_rp_csc
from iohp.engine import compute_psums, fill_grid, merge_join
from iohp.planner import HardwareConfig, PartitionPlan
from test_engine_reference import CASES, psum_operands


def two_join_compute_cycles(a_blk, b_blk):
    """The cost model's own lockstep formula over a second join, kept as the
    reference: busiest PE per matched index, one cycle per unmatched one."""
    ia, ib = merge_join(a_blk, b_blk)
    ma = a_blk.busiest[ia]
    mb = b_blk.busiest[ib]
    unmatched = a_blk.col_all_len + b_blk.row_all_len - 2 * len(ia)
    return int(ma @ mb) + unmatched


def test_one_join_per_pass_of_a_spilling_run():
    geom, a, b = psum_operands(CASES[0], "float")
    cfg = HardwareConfig(c_psum=4, s=2, g_na=2, g_nb=3)
    plan = PartitionPlan(1, 1, 1, 2, 4, 3, "RABE", 0)
    join = mock.Mock(wraps=merge_join)
    with contextlib.ExitStack() as stack:  # every module that binds the join
        for module in (iohp.engine, iohp.costmodel):
            if hasattr(module, "merge_join"):
                stack.enter_context(mock.patch.object(module, "merge_join",
                                                      join))
        _, stats = run(Workload(a, b), plan, cfg, "ssmm")
    assert len(stats.traces) == geom.t_m * geom.t_k * geom.t_n > 1
    assert stats.spill_events > 0
    assert join.call_count == len(stats.traces)


@pytest.mark.parametrize("values", ["int", "float"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("limits", [(4, 2), (10 ** 9, None), (1, 1)])
def test_compute_cycles_equal_the_two_join_formula(case, values, limits):
    geom, a, b = psum_operands(case, values)
    capacity, s = limits
    cfg = HardwareConfig(c_psum=capacity, s=s)
    for bm in range(geom.t_m):
        for bk in range(geom.t_k):
            for bn in range(geom.t_n):
                a_blk = encode_rp_csc(a, geom, bm, bk)
                b_blk = encode_cp_csr(b, geom, bk, bn)
                grid = compute_psums(a_blk, b_blk, cfg, (bm, bn, bk))
                assert type(grid.compute_cycles) is int
                assert grid.compute_cycles == two_join_compute_cycles(a_blk,
                                                                      b_blk)


def test_a_grid_filled_without_a_join_costs_nothing():
    one = np.zeros(1, dtype=np.int64)
    grid, _ = fill_grid(one, one, one, np.ones(1), (1, 1, 1, 1), 1, 1)
    assert grid.appended_products == 1
    assert grid.compute_cycles == 0
