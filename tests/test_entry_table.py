"""A block stores its entry table; the paper's streams are read off it.

Every case is checked two ways: the encoder's shared stream, table and
busiest runs equal those built by a plain loop over the strip of the input
arrays, including for CSC columns or CSR rows whose minor indices are
unsorted, which the constructors allow; and walking the bitmap of the
streams read off the table gives the table back.  ``validate`` checks the
stored table itself.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iohp.encoding import (RpCscBlock, encode_cp_csr, encode_rp_csc,
                           make_geometry)
from iohp.errors import MalformedBlockError
from iohp.matrices import CscMatrix, CsrMatrix, TripletMatrix, to_csc, to_csr
from iohp.planner import PartitionPlan
from test_encoding_reference import group_slices, streams, validate


def plan_of(m_t, k_t, n_t):
    return PartitionPlan(1, 1, 1, m_t, k_t, n_t, "RABE", 0)


def strip_reference(ptr, idx, val, k_span, outer_span, n_groups, tile):
    """Shared stream, table rows and busiest runs of one strip, by loops.

    Positions number the k lines of the span that hold an entry of the
    outer range; the table is the strip's entries in input order, stably
    sorted by (position, group).
    """
    (k_lo, k_hi), (lo, hi) = k_span, outer_span
    inner, rows = [], []
    for kk in range(k_lo, k_hi):
        members = [(int(idx[e]) - lo, float(val[e]))
                   for e in range(int(ptr[kk]), int(ptr[kk + 1]))
                   if lo <= int(idx[e]) < hi]
        if members:
            rows += [(len(inner), o // tile, o % tile, v) for o, v in members]
            inner.append(kk - k_lo)
    rows.sort(key=lambda row: row[:2])
    busiest = [max(sum(1 for r in rows if r[:2] == (p, g))
                   for g in range(n_groups)) for p in range(len(inner))]
    return inner, rows, busiest


def walked_table(blk):
    """The table read back from the block's streams, group by group through
    its bitmap: group g's entries fill its member positions run by run."""
    return [(p, g, int(i), float(v))
            for p, members in enumerate(group_slices(blk))
            for g, local, value in members
            for i, v in zip(local.tolist(), value.tolist(), strict=True)]


def table_rows(blk):
    return list(zip(*(col.tolist() for col in blk.entry_table)))


def assert_block_matches(blk, strip):
    """The encoder's fields equal the loop reference, and so does the
    table walked back from the derived streams."""
    inner, rows, busiest = strip_reference(*strip)
    shared = blk.col_idx if isinstance(blk, RpCscBlock) else blk.row_idx
    assert shared.tolist() == inner
    assert [col.dtype for col in blk.entry_table] == [np.int64] * 3 + [
        np.float64]
    assert table_rows(blk) == rows
    assert blk.busiest.dtype == np.int64
    assert blk.busiest.tolist() == busiest
    assert blk.nnz == len(rows)
    validate(blk)
    assert walked_table(blk) == rows
    assert streams(blk).inner_idx is shared


def a_strip(a, geom, bm, bk):
    return (a.col_ptr, a.row_idx, a.value, geom.k_span(bk),
            geom.block_rows(bm), geom.g_na, geom.m_t)


def b_strip(b, geom, bk, bn):
    return (b.row_ptr, b.col_idx, b.value, geom.k_span(bk),
            geom.block_cols(bn), geom.g_nb, geom.n_t)


def assert_every_block(a, b, geom):
    for bm in range(geom.t_m):
        for bk in range(geom.t_k):
            assert_block_matches(encode_rp_csc(a, geom, bm, bk),
                                 a_strip(a, geom, bm, bk))
    for bk in range(geom.t_k):
        for bn in range(geom.t_n):
            assert_block_matches(encode_cp_csr(b, geom, bk, bn),
                                 b_strip(b, geom, bk, bn))


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
    b = to_csr(TripletMatrix(2, 1, [(0, 0, 1.0), (1, 0, 2.0)]))
    geom = make_geometry(plan_of(2, 2, 1), (8, 2, 1), (4, 1))
    blk = encode_rp_csc(a, geom, 0, 0)
    position, group, local, value = blk.entry_table
    assert position.tolist() == [0, 0, 1]
    assert group.tolist() == [0, 3, 1]
    assert local.tolist() == [0, 1, 1]
    assert value.tolist() == [2., 1., 3.]
    assert blk.busiest.tolist() == [1, 1]
    assert_every_block(a, b, geom)


def test_unsorted_row_of_b():
    a = to_csc(TripletMatrix(1, 2, [(0, 0, 1.0), (0, 1, 1.0)]))
    b = CsrMatrix(2, 8, np.array([1., 2., 3., 4.]), np.array([6, 1, 2, 0]),
                  np.array([0, 3, 4]))
    geom = make_geometry(plan_of(1, 2, 2), (1, 2, 8), (1, 4))
    blk = encode_cp_csr(b, geom, 0, 0)
    assert blk.entry_table[1].tolist() == [0, 1, 3, 0]
    assert blk.busiest.tolist() == [1, 1]
    assert_every_block(a, b, geom)


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
    assert_every_block(to_csc(ta), to_csr(tb), geom)
    a, b = to_csc(TripletMatrix(m, k, [])), to_csr(TripletMatrix(k, n, []))
    empty = encode_rp_csc(a, geom, 0, 0)
    assert [len(x) for x in empty.entry_table] == [0, 0, 0, 0]
    assert_every_block(a, b, geom)


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
    assert_every_block(a, b, make_geometry(plan_of(*tiles), (m, k, n),
                                           (g_na, g_nb)))


@pytest.mark.parametrize("edit, message", [
    (lambda p, g, l, v: (p + 1, g, l, v), "entry table position outside 0..1"),
    (lambda p, g, l, v: (p, g + 1, l, v), "entry table group outside 0..1"),
    (lambda p, g, l, v: (p, g, l + 2, v), "entry table row_idx outside 0..1"),
    (lambda p, g, l, v: (p[::-1], g[::-1], l, v),
     r"entry table not in \(position, group\) order"),
    (lambda p, g, l, v: (p * 0, g, l, v), "a col_idx position holds no entry"),
    (lambda p, g, l, v: (p, g, l, v[:1]), "entry table columns differ"),
])
def test_validate_checks_the_stored_table(edit, message):
    # columns 0 and 2 of a 4x4 A hold rows 0 and 3: groups 0 and 1 of m_t=2
    a = to_csc(TripletMatrix(4, 4, [(0, 0, 1.0), (3, 2, 2.0)]))
    geom = make_geometry(plan_of(2, 4, 2), (4, 4, 4), (2, 2))
    blk = encode_rp_csc(a, geom, 0, 0)
    validate(blk)
    bad = dataclasses.replace(blk, entry_table=edit(*blk.entry_table))
    with pytest.raises(MalformedBlockError, match=message):
        validate(bad)

