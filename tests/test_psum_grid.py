"""A pass's psum state lives once, as the grid's per-PE arrays; the
``PsumStore`` records are built from them only when something inspects a
store, and the cost model reads the arrays alone."""

import numpy as np
import pytest

import iohp.engine
from iohp.costmodel import Workload, run
from iohp.encoding import encode_cp_csr, encode_rp_csc
from iohp.planner import HardwareConfig, PartitionPlan
from test_engine_reference import CASES, psum_operands


def stacked_addrmap_cycles(grid):
    """The cycle formula over the records' stacked row lengths."""
    row_len = np.array([st.row_len for st in grid], dtype=np.int64)
    return int((2 * row_len.sum(axis=1)
                + np.count_nonzero(row_len, axis=1)).max())


def test_run_builds_no_store_record(monkeypatch):
    built = []

    class CountedStore(iohp.engine.PsumStore):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(iohp.engine, "PsumStore", CountedStore)
    geom, a, b = psum_operands(CASES[0], "float")
    cfg = HardwareConfig(c_psum=4, s=2, g_na=2, g_nb=3)
    plan = PartitionPlan(1, 1, 1, 2, 4, 3, "RABE", 0)
    _, stats = run(Workload(a, b), plan, cfg, "ssmm")
    assert stats.spill_events and stats.addrmap_cycles
    assert built == []
    # the counter sees the records once something inspects a grid
    grid = iohp.engine.compute_psums(encode_rp_csc(a, geom, 0, 0),
                                     encode_cp_csr(b, geom, 0, 0), cfg)
    assert len(list(grid)) == len(built) == 6


@pytest.mark.parametrize("values", ["int", "float"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("limits", [(4, 2), (10 ** 9, None), (1, 1)])
def test_grid_arrays_match_records(case, values, limits):
    geom, a, b = psum_operands(case, values)
    capacity, s = limits
    cfg = HardwareConfig(c_psum=capacity, s=s)
    for bm in range(geom.t_m):
        for bk in range(geom.t_k):
            for bn in range(geom.t_n):
                grid = iohp.engine.compute_psums(
                    encode_rp_csc(a, geom, bm, bk),
                    encode_cp_csr(b, geom, bk, bn), cfg)
                stores = list(grid)
                assert len(stores) == len(grid.peak) == geom.g_na * geom.g_nb
                assert [grid.stores[i // geom.g_nb][i % geom.g_nb]
                        for i in range(len(stores))] == stores
                for i, st in enumerate(stores):
                    assert st.row_len.dtype == grid.row_len.dtype
                    assert st.row_len.tolist() == grid.row_len[i].tolist()
                    assert ((st.peak_id, st.appended_total, st.spill_events)
                            == (grid.peak[i], grid.appended[i],
                                grid.spills[i]))
                assert grid.appended_products == sum(
                    st.appended_total for st in stores)
                assert grid.spill_events == sum(
                    st.spill_events for st in stores)
                assert grid.addrmap_cycles == stacked_addrmap_cycles(grid)


def test_records_are_built_once_and_share_no_row_lengths():
    geom, a, b = psum_operands(CASES[0], "float")
    grid = iohp.engine.compute_psums(encode_rp_csc(a, geom, 0, 0),
                                     encode_cp_csr(b, geom, 0, 0),
                                     HardwareConfig(c_psum=4, s=2))
    assert grid.stores is grid.stores
    cycles = grid.addrmap_cycles
    for st in grid:
        st.row_len[:] = 0  # editing a record leaves the grid's state alone
    assert grid.addrmap_cycles == cycles > 0
