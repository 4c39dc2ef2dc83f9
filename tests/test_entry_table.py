"""The encoder hands each block its entry table and busiest runs.

They must equal what the block's cached properties build from its streams
(``dataclasses.replace`` makes a block without them), including for CSC
columns or CSR rows whose minor indices are unsorted, which the constructors
allow; and an encoder-built block never walks its group bitmap.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iohp.encoding
from iohp.costmodel import Workload, run
from iohp.encoding import encode_cp_csr, encode_rp_csc, make_geometry
from iohp.engine import compute_psums
from iohp.matrices import CscMatrix, CsrMatrix, TripletMatrix, to_csc, to_csr
from iohp.planner import HardwareConfig, PartitionPlan


def plan_of(m_t, k_t, n_t):
    return PartitionPlan(1, 1, 1, m_t, k_t, n_t, "RABE", 0)


def assert_same_array(got, ref):
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def assert_handed_over(blk):
    """The encoder's table and busiest runs are those read from the streams."""
    assert {"entry_table", "busiest"} <= vars(blk).keys()
    rebuilt = dataclasses.replace(blk)
    assert "entry_table" not in vars(rebuilt)
    for got, ref in zip(blk.entry_table, rebuilt.entry_table, strict=True):
        assert_same_array(got, ref)
    assert_same_array(blk.busiest, rebuilt.busiest)


def every_block(a, b, geom):
    yield from (encode_rp_csc(a, geom, bm, bk)
                for bm in range(geom.t_m) for bk in range(geom.t_k))
    yield from (encode_cp_csr(b, geom, bk, bn)
                for bk in range(geom.t_k) for bn in range(geom.t_n))


def shuffled_minor(ptr, idx, val, rng):
    """The same matrix with each major line's entries in random order."""
    order = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in
                            zip(ptr[:-1].tolist(), ptr[1:].tolist())]
                           + [np.empty(0, dtype=np.int64)])
    return idx[order], val[order]


def test_unsorted_column_reads_by_position_then_group():
    # column 0 holds rows 7 then 0 (groups 3, 0), column 1 row 3 (group 1):
    # input order reads groups [3, 0, 1], the table [0, 3, 1]
    a = CscMatrix(8, 2, np.array([1., 2., 3.]), np.array([7, 0, 3]),
                  np.array([0, 2, 3]))
    geom = make_geometry(plan_of(2, 2, 1), (8, 2, 1), (4, 1))
    blk = encode_rp_csc(a, geom, 0, 0)
    position, group, local, value = blk.entry_table
    assert position.tolist() == [0, 0, 1]
    assert group.tolist() == [0, 3, 1]
    assert local.tolist() == [0, 1, 1]
    assert value.tolist() == [2., 1., 3.]
    assert blk.busiest.tolist() == [1, 1]
    assert_handed_over(blk)


def test_unsorted_row_of_b():
    b = CsrMatrix(2, 8, np.array([1., 2., 3., 4.]), np.array([6, 1, 2, 0]),
                  np.array([0, 3, 4]))
    geom = make_geometry(plan_of(1, 2, 2), (1, 2, 8), (1, 4))
    blk = encode_cp_csr(b, geom, 0, 0)
    assert blk.entry_table[1].tolist() == [0, 1, 3, 0]
    assert blk.busiest.tolist() == [1, 1]
    assert_handed_over(blk)


@pytest.mark.parametrize("dims, tiles, groups", [
    ((7, 9, 11), (2, 4, 3), (2, 3)),  # ragged edge blocks on every side
    ((13, 5, 6), (3, 2, 4), (3, 2)),
    ((9, 17, 23), (1, 3, 2), (4, 5)),
    ((64, 3, 64), (1, 3, 1), (64, 64)),  # 64 groups a side
])
def test_ragged_and_empty_blocks(dims, tiles, groups):
    m, k, n = dims
    rng = np.random.default_rng(sum(dims))
    # the first k-column of A and the last k-row of B stay empty
    ta = TripletMatrix(m, k, [(r, c, float(rng.integers(1, 9)))
                              for r in range(m) for c in range(1, k)
                              if rng.random() < 0.3])
    tb = TripletMatrix(k, n, [(r, c, float(rng.integers(1, 9)))
                              for r in range(k - 1) for c in range(n)
                              if rng.random() < 0.3])
    geom = make_geometry(plan_of(*tiles), dims, groups)
    for blk in every_block(to_csc(ta), to_csr(tb), geom):
        assert_handed_over(blk)
    empty = encode_rp_csc(to_csc(TripletMatrix(m, k, [])), geom, 0, 0)
    assert [len(x) for x in empty.entry_table] == [0, 0, 0, 0]
    assert_handed_over(empty)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_drawn_blocks_with_unsorted_minor_indices(data):
    m, k, n = (data.draw(st.integers(1, 14)) for _ in range(3))
    g_na, g_nb = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    tiles = [data.draw(st.integers(1, 6)) for _ in range(3)]
    density = data.draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    ta = TripletMatrix(m, k, [(r, c, float(rng.uniform(-9, 9)))
                              for r in range(m) for c in range(k)
                              if rng.random() < density])
    tb = TripletMatrix(k, n, [(r, c, float(rng.uniform(-9, 9)))
                              for r in range(k) for c in range(n)
                              if rng.random() < density])
    a, b = to_csc(ta), to_csr(tb)
    if data.draw(st.booleans(), label="shuffle"):
        a = CscMatrix(m, k, *shuffled_minor(a.col_ptr, a.row_idx, a.value,
                                            rng)[::-1], a.col_ptr)
        b = CsrMatrix(k, n, *shuffled_minor(b.row_ptr, b.col_idx, b.value,
                                            rng)[::-1], b.row_ptr)
    geom = make_geometry(plan_of(*tiles), (m, k, n), (g_na, g_nb))
    for blk in every_block(a, b, geom):
        assert_handed_over(blk)


def test_encoded_blocks_never_walk_the_bitmap(monkeypatch):
    def walk(*_):
        raise AssertionError("the group bitmap was walked")

    monkeypatch.setattr(iohp.encoding, "_members", walk)
    rng = np.random.default_rng(3)
    ta = TripletMatrix(20, 12, [(r, c, 1.0) for r in range(20) for c in range(12)
                                if rng.random() < 0.3])
    tb = TripletMatrix(12, 15, [(r, c, 2.0) for r in range(12) for c in range(15)
                                if rng.random() < 0.3])
    geom = make_geometry(plan_of(3, 4, 2), (20, 12, 15), (4, 3))
    a_blk = encode_rp_csc(to_csc(ta), geom, 0, 1)
    b_blk = encode_cp_csr(to_csr(tb), geom, 1, 0)
    assert a_blk.entry_table and len(a_blk.busiest) and len(b_blk.busiest)
    compute_psums(a_blk, b_blk, HardwareConfig(c_psum=4, s=2))
    cfg = HardwareConfig(c_psum=6, s=2, g_na=4, g_nb=3)
    run(Workload(to_csc(ta), to_csr(tb)), plan_of(3, 4, 2), cfg, "ssmm")
    with pytest.raises(AssertionError, match="walked"):
        dataclasses.replace(a_blk).entry_table
