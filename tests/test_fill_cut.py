"""``fill_grid`` cuts a pass's fills with one sort by (PE, row); the
round-based cutter it replaced, which re-sorted a capacity-wide window of
every open store in each overflow round, is kept here as the reference.

Both cut the same PE-major stream, so fill starts, slots and every
``PsumGrid`` array must be bit-identical, and under policy ``fail`` the same
(k, g, h) overflow must be raised.
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
from iohp.matrices import CscMatrix, CsrMatrix
from iohp.planner import HardwareConfig, PartitionPlan


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
    starts, slot = fill_cuts_reference(pe, rows, shape, s, capacity)
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
                    flushes.value),
        (h_pe, h_rows, slot[held], cols[held], vals[held]),
        (f_rows, flushes.col, flushes.value),
        np.searchsorted(f, np.flatnonzero(~last))), starts


def assert_same_array(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def assert_same_grid(got, ref):
    for field in dataclasses.fields(PsumGrid):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(a, OutputBlock):
            a, b = (a.row, a.col, a.value), (b.row, b.col, b.value)
        if isinstance(a, tuple) and field.name != "shape":
            assert len(a) == len(b)
            for x, y in zip(a, b):
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
    """Fill starts, held slots (``stored[2]``) and every grid array."""
    grid, starts = fill_grid(*case)
    ref, ref_starts = fill_grid_reference(*case)
    assert_same_array(starts, ref_starts)
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
    # the corner streams exercise the cut: all but the empty one flush
    spilled = {name: fill_grid(*case)[0].spill_events
               for name, case in CORNERS.items()}
    assert spilled["empty"] == 0
    assert all(spilled[name] > 0 for name in CORNERS if name != "empty")


def sort_calls(monkeypatch, case):
    """Spill events of ``fill_grid(*case)`` and the numpy sorts it called."""
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("argsort", "lexsort", "sort"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    try:
        grid, _ = fill_grid(*case)
    finally:
        monkeypatch.undo()
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
