"""A pass's psum state lives once, as the grid's per-PE arrays, and the cost
model reads the arrays alone; the per-store records, rebuilt in
``test_engine_reference``, agree with them."""

import dataclasses

import numpy as np
import pytest

import iohp.engine
from iohp.encoding import encode_cp_csr, encode_rp_csc
from iohp.planner import HardwareConfig
from test_engine_reference import CASES, psum_operands, psums_with_records


def stacked_addrmap_cycles(stores):
    """The cycle formula over the records' stacked row lengths."""
    row_len = np.array([st.row_len for st in stores], dtype=np.int64)
    return int((2 * row_len.sum(axis=1)
                + np.count_nonzero(row_len, axis=1)).max())


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
                grid, records = psums_with_records(
                    encode_rp_csc(a, geom, bm, bk),
                    encode_cp_csr(b, geom, bk, bn), cfg)
                stores = [st for row in records for st in row]
                assert len(stores) == len(grid.peak) == geom.g_na * geom.g_nb
                assert [len(row) for row in records] == [geom.g_nb] * geom.g_na
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
                assert grid.addrmap_cycles == stacked_addrmap_cycles(stores)


def test_records_share_no_row_lengths():
    geom, a, b = psum_operands(CASES[0], "float")
    grid, records = psums_with_records(encode_rp_csc(a, geom, 0, 0),
                                       encode_cp_csr(b, geom, 0, 0),
                                       HardwareConfig(c_psum=4, s=2))
    cycles = grid.addrmap_cycles
    for row in records:
        for st in row:
            st.row_len[:] = 0  # editing a record leaves the grid's state alone
    assert grid.addrmap_cycles == cycles > 0


def test_grid_holds_what_the_cost_model_and_the_tracer_read():
    assert [f.name for f in dataclasses.fields(iohp.engine.PsumGrid)] == [
        "shape", "s", "capacity", "row_len", "peak", "appended", "spills",
        "held", "spilled", "compute_cycles"]
    geom, a, b = psum_operands(CASES[0], "float")
    grid = iohp.engine.compute_psums(encode_rp_csc(a, geom, 0, 0),
                                     encode_cp_csr(b, geom, 0, 0),
                                     HardwareConfig(c_psum=4, s=2))
    assert grid.spill_events
    # the benchmark tracer's peak-occupancy loop reads these two per PE
    assert [(st.peak_id, st.capacity) for st in grid] == [
        (p, grid.capacity) for p in grid.peak.tolist()]
