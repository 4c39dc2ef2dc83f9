"""``fill_grid`` cuts a pass's fills with one sort by (PE, row); the
round-based cutter it replaced, which re-sorted a capacity-wide window of
every open store in each overflow round, is kept here as the reference.

Both cut the same PE-major stream, so fill starts, slots (those of
``test_engine_reference``'s record builder) and every ``PsumGrid`` array
must be bit-identical, and under policy ``fail`` the same (k, g, h) overflow
must be raised.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import iohp.engine
from iohp.encoding import encode_cp_csr, encode_rp_csc, make_geometry
from iohp.engine import (OutputBlock, PsumGrid, _accumulate, _at_pe,
                         compute_psums, fill_grid)
from iohp.errors import PsumOverflowError
from iohp.matrices import CscMatrix, CsrMatrix, to_csc, to_csr
from iohp.planner import HardwareConfig, PartitionPlan
from iohp.synthetic import random_triplets
from test_engine_reference import fill_slots


def fill_cuts_reference(pe, rows, shape, s, capacity):
    """Each fill's start and each product's slot in its row, one round per
    overflow of the busiest store: every open store's next window of
    ``min(capacity, m_t * s)`` products is sorted by row and cut before its
    first product past ``s`` slots."""
    g_na, g_nb, m_t, _ = shape
    n_pe = g_na * g_nb
    bounds = np.searchsorted(pe, np.arange(n_pe + 1))
    slot = np.empty(len(pe), dtype=np.int64)
    lo, hi, starts = bounds[:-1], bounds[1:], [bounds[:0]]
    while (open_ := lo < hi).any():
        lo, hi = lo[open_], hi[open_]
        starts.append(lo)
        n = np.minimum(hi - lo, min(capacity, m_t * s))
        win = np.repeat(np.arange(len(n)), n)
        at = np.arange(len(win)) - np.repeat(np.cumsum(n) - n, n)
        idx = lo[win] + at
        key = win * m_t + rows[idx]
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        slot[idx[order]] = np.arange(len(idx)) - np.repeat(
            first, np.diff(first, append=len(idx)))
        full = np.flatnonzero(slot[idx] >= s)
        np.minimum.at(n, win[full], at[full])
        lo = lo + n
    return np.sort(np.concatenate(starts)), slot


def fill_grid_reference(pe, rows, cols, vals, shape, s, capacity):
    """The former ``fill_grid``: the reference cuts, then the grid's arrays."""
    g_na, g_nb, m_t, _ = shape
    n_pe = g_na * g_nb
    starts, _ = fill_cuts_reference(pe, rows, shape, s, capacity)
    lengths = np.diff(starts, append=len(pe))
    fill, fill_pe = np.repeat(np.arange(len(starts)), lengths), pe[starts]
    last = np.diff(fill_pe, append=n_pe) > 0
    held = last[fill]
    h_pe, h_rows = pe[held], rows[held]
    flushes = _accumulate(fill[~held] * m_t + rows[~held], cols[~held],
                          vals[~held])
    f, f_rows = np.divmod(flushes.row, m_t)
    peak = np.zeros(n_pe, dtype=np.int64)
    np.maximum.at(peak, fill_pe, lengths)
    return PsumGrid(
        shape, s, capacity, np.bincount(h_pe * m_t + h_rows,
                                        minlength=n_pe * m_t).reshape(n_pe, m_t),
        peak, np.diff(np.searchsorted(pe, np.arange(n_pe + 1))),
        np.bincount(fill_pe[~last], minlength=n_pe),
        _accumulate(*_at_pe(h_pe, h_rows, cols[held], shape), vals[held]),
        OutputBlock(*_at_pe(fill_pe[f], f_rows, flushes.col, shape),
                    flushes.value)), starts


def assert_same_array(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def assert_same_grid(got, ref):
    for field in dataclasses.fields(PsumGrid):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(a, OutputBlock):
            for x, y in zip((a.row, a.col, a.value), (b.row, b.col, b.value)):
                assert_same_array(x, y)
        elif isinstance(a, np.ndarray):
            assert_same_array(a, b)
        else:
            assert a == b


def stream(pe, rows, cols, vals, g_na, g_nb, m_t, n_t, s, capacity):
    as_int = lambda x: np.asarray(x, dtype=np.int64)
    return (as_int(pe), as_int(rows), as_int(cols),
            np.asarray(vals, dtype=np.float64), (g_na, g_nb, m_t, n_t), s,
            capacity)


@st.composite
def pe_major_streams(draw):
    """A PE-major product stream over up to 64 PEs, with row repeats and
    limits that make stores spill often."""
    g_na, g_nb = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    m_t, n_t = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    n = draw(st.integers(0, 150))
    ints = lambda hi: hnp.arrays(np.int64, n, elements=st.integers(0, hi - 1))
    pe = np.sort(draw(ints(g_na * g_nb)))
    values = hnp.arrays(np.float64, n, elements=st.floats(-8, 8, width=32))
    return stream(pe, draw(ints(m_t)), draw(ints(n_t)), draw(values), g_na,
                  g_nb, m_t, n_t, draw(st.integers(1, 6)),
                  draw(st.integers(1, 40)))


def check_against_reference(case):
    """Fill starts, every product's slot and every grid array."""
    grid, starts = fill_grid(*case)
    ref, ref_starts = fill_grid_reference(*case)
    assert_same_array(starts, ref_starts)
    pe, rows, _, _, shape, s, capacity = case
    assert_same_array(fill_slots(rows, shape[2], starts),
                      fill_cuts_reference(pe, rows, shape, s, capacity)[1])
    assert_same_grid(grid, ref)


RNG = np.random.default_rng(0)
CORNERS = {
    "empty": stream([], [], [], [], 2, 3, 4, 2, 2, 5),
    "one PE": stream(np.zeros(30), RNG.integers(0, 3, 30), RNG.integers(0, 4, 30),
                     RNG.uniform(-1, 1, 30), 1, 1, 3, 4, 2, 7),
    "64 PEs": stream(np.sort(RNG.integers(0, 64, 400)), RNG.integers(0, 4, 400),
                     RNG.integers(0, 3, 400), RNG.uniform(-1, 1, 400),
                     8, 8, 4, 3, 2, 6),
    "s = 1": stream(np.sort(RNG.integers(0, 4, 80)), RNG.integers(0, 5, 80),
                    RNG.integers(0, 3, 80), RNG.uniform(-1, 1, 80), 2, 2, 5, 3,
                    1, 9),
    "c_psum = 1": stream(np.sort(RNG.integers(0, 4, 50)), RNG.integers(0, 2, 50),
                         RNG.integers(0, 3, 50), RNG.uniform(-1, 1, 50), 2, 2,
                         2, 3, 3, 1),
    "c_psum < s": stream(np.sort(RNG.integers(0, 6, 90)), RNG.integers(0, 3, 90),
                         RNG.integers(0, 3, 90), RNG.uniform(-1, 1, 90), 2, 3,
                         3, 3, 5, 3),
    "c_psum > m_t * s": stream(np.sort(RNG.integers(0, 4, 120)),
                               RNG.integers(0, 3, 120), RNG.integers(0, 2, 120),
                               RNG.uniform(-1, 1, 120), 2, 2, 3, 2, 2, 100),
    "one row": stream(np.zeros(40), np.zeros(40), RNG.integers(0, 3, 40),
                      RNG.uniform(-1, 1, 40), 1, 1, 1, 3, 3, 10 ** 9),
}


def limit_corner(pe, rows, *shape_and_limits):
    """A stream of the given PEs and rows, with drawn columns and values."""
    n = len(pe)
    return stream(pe, rows, RNG.integers(0, 3, n), RNG.uniform(-1, 1, n),
                  *shape_and_limits)


# stores filled exactly to a limit, which take fill_grid's no-overflow exit,
# and the same streams with one product more, which take the cut: PE 0 and
# PE 3 hold c_psum = 10 products in rows under s = 4, or row 1 of PE 0 and
# row 2 of PE 1 hold s = 4
AT_CAPACITY = [2, 0, 1, 3, 0, 2, 1, 0, 2, 1]
CORNERS.update({
    "PE at c_psum": limit_corner(
        [0] * 10 + [1] * 4 + [3] * 10, AT_CAPACITY + [0, 1, 1, 3] + AT_CAPACITY,
        2, 2, 4, 3, 4, 10),
    "PE past c_psum": limit_corner(
        [0] * 11 + [1] * 4 + [3] * 10,
        AT_CAPACITY[:5] + [3] + AT_CAPACITY[5:] + [0, 1, 1, 3] + AT_CAPACITY,
        2, 2, 4, 3, 4, 10),
    "row at s": limit_corner([0] * 7 + [1] * 5,
                             [1, 0, 1, 2, 1, 1, 0] + [2, 2, 0, 2, 2],
                             2, 1, 3, 4, 4, 50),
    "row past s": limit_corner([0] * 8 + [1] * 5,
                               [1, 0, 1, 2, 1, 1, 1, 0] + [2, 2, 0, 2, 2],
                               2, 1, 3, 4, 4, 50),
})
FILLED_TO_A_LIMIT = ("PE at c_psum", "row at s")


@pytest.mark.parametrize("name", CORNERS)
def test_corner_streams_cut_alike(name):
    check_against_reference(CORNERS[name])


@settings(max_examples=300, deadline=None)
@given(pe_major_streams())
@example(CORNERS["empty"])
@example(CORNERS["c_psum < s"])
def test_drawn_streams_cut_alike(case):
    check_against_reference(case)


def test_corners_spill():
    # the corner streams exercise the cut: all but the empty one and the
    # stores filled exactly to a limit flush
    spilled = {name: fill_grid(*case)[0].spill_events
               for name, case in CORNERS.items()}
    quiet = ("empty",) + FILLED_TO_A_LIMIT
    assert all(spilled[name] == 0 for name in quiet)
    assert all(spilled[name] > 0 for name in CORNERS if name not in quiet)


def counted_sorts(monkeypatch, call, *args):
    """``call(*args)`` and the numpy sorts it made."""
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("argsort", "lexsort", "sort"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    try:
        out = call(*args)
    finally:
        monkeypatch.undo()
    return out, calls


def sort_calls(monkeypatch, case):
    """Spill events of ``fill_grid(*case)`` and the numpy sorts it called."""
    (grid, _), calls = counted_sorts(monkeypatch, fill_grid, *case)
    return grid.spill_events, calls


def test_sorts_do_not_grow_with_spills(monkeypatch):
    # the same stream with a few flushes and with one per few products: the
    # (PE, row) sort, the fill starts' sort and one sort per map
    rng = np.random.default_rng(5)
    n = 2000
    pe, rows = np.sort(rng.integers(0, 4, n)), rng.integers(0, 4, n)
    cols, vals = rng.integers(0, 3, n), rng.uniform(-1, 1, n)
    calm = stream(pe, rows, cols, vals, 2, 2, 4, 3, n, 300)
    busy = stream(pe, rows, cols, vals, 2, 2, 4, 3, 1, 3)
    few, calm_calls = sort_calls(monkeypatch, calm)
    many, busy_calls = sort_calls(monkeypatch, busy)
    assert 0 < few < 10 and many > 500
    assert len(calm_calls) == len(busy_calls) == 4


def test_a_pass_with_no_overflow_sorts_only_its_held_map(monkeypatch):
    # test_sorts_do_not_grow_with_spills' stream within both limits: no
    # cut, and the held map's one (row, column) sort
    rng = np.random.default_rng(5)
    n = 2000
    pe, rows = np.sort(rng.integers(0, 4, n)), rng.integers(0, 4, n)
    cols, vals = rng.integers(0, 3, n), rng.uniform(-1, 1, n)
    spills, calls = sort_calls(monkeypatch, stream(pe, rows, cols, vals, 2, 2,
                                                  4, 3, n, n))
    _, map_calls = counted_sorts(monkeypatch, _accumulate,
                                 *_at_pe(pe, rows, cols, (2, 2, 4, 3)), vals)
    assert spills == 0
    assert calls == map_calls and len(calls) == 1
    for name in FILLED_TO_A_LIMIT:
        assert sort_calls(monkeypatch, CORNERS[name]) == (0, ["lexsort"])


def test_a_canonical_matrix_encodes_without_a_sort(monkeypatch):
    # to_csc/to_csr keep each strip in (position, group) order; a CSC with
    # each column's rows reversed needs the sort
    rng = np.random.default_rng(7)
    a = to_csc(random_triplets(40, 30, 0.2, rng))
    b = to_csr(random_triplets(30, 50, 0.2, rng))
    geom = make_geometry(PartitionPlan(1, 1, 1, 4, 8, 5, "RABE", 0),
                         (40, 30, 50), (3, 4))
    assert geom.t_m > 1 and geom.t_k > 1 and geom.t_n > 1
    blocks = [(encode_rp_csc, a, bm, bk) for bm in range(geom.t_m)
              for bk in range(geom.t_k)]
    blocks += [(encode_cp_csr, b, bk, bn) for bk in range(geom.t_k)
               for bn in range(geom.t_n)]
    for encode, matrix, i, j in blocks:
        assert counted_sorts(monkeypatch, encode, matrix, geom, i, j)[1] == []
    reversed_rows = np.concatenate([a.row_idx[lo:hi][::-1] for lo, hi in
                                    zip(a.col_ptr[:-1], a.col_ptr[1:])])
    reversed_vals = np.concatenate([a.value[lo:hi][::-1] for lo, hi in
                                    zip(a.col_ptr[:-1], a.col_ptr[1:])])
    unsorted = CscMatrix(40, 30, reversed_vals, reversed_rows, a.col_ptr)
    assert any(counted_sorts(monkeypatch, encode_rp_csc, unsorted, geom, bm,
                             bk)[1] for bm in range(geom.t_m)
               for bk in range(geom.t_k))


def _compressed(rows_major):
    """Values, minor indices and offsets of a dense array, row by row."""
    major, minor = np.nonzero(rows_major)
    ptr = np.zeros(rows_major.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(major, minlength=rows_major.shape[0]), out=ptr[1:])
    return rows_major[major, minor].astype(np.float64), minor, ptr


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compute_psums_fails_at_the_same_overflow(data):
    # whole passes, with fill_grid swapped for the reference: the same grid
    # under spill, the same (k, g, h) overflow message under fail
    m, k, n = (data.draw(st.integers(1, 12)) for _ in range(3))
    g_na, g_nb = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m_t, n_t = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    density = data.draw(st.floats(0.1, 0.9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    a = (rng.random((m, k)) < density) * rng.integers(1, 5, (m, k))
    b = (rng.random((k, n)) < density) * rng.integers(1, 5, (k, n))
    csc = CscMatrix(m, k, *(np.asarray(x) for x in _compressed(a.T)))
    csr = CsrMatrix(k, n, *(np.asarray(x) for x in _compressed(b)))
    geom = make_geometry(PartitionPlan(1, 1, 1, m_t, k, n_t, "RABE", 0),
                         (m, k, n), (g_na, g_nb))
    cfg = HardwareConfig(c_psum=data.draw(st.integers(1, 12)),
                         s=data.draw(st.sampled_from([None, 1, 2, 3])),
                         overflow_policy=data.draw(st.sampled_from(
                             ["spill", "fail"])), g_na=g_na, g_nb=g_nb)
    for bm in range(geom.t_m):
        for bn in range(geom.t_n):
            blocks = (encode_rp_csc(csc, geom, bm, 0),
                      encode_cp_csr(csr, geom, 0, bn), cfg)
            outcomes = []
            for cut in (fill_grid, fill_grid_reference):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(iohp.engine, "fill_grid", cut)
                    try:
                        outcomes.append(compute_psums(*blocks))
                    except PsumOverflowError as err:
                        outcomes.append(str(err))
            got, ref = outcomes
            if isinstance(ref, str):
                assert got == ref
            else:
                assert_same_grid(got, ref)
