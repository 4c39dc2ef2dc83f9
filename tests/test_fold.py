"""One summation rule for the address map and for duplicate entries: each
coordinate's values are a left fold in arrival order, ``((v0 + v1) + v2)
+ ...``, as a sequential accumulator adds them.  ``engine._accumulate`` and
``matrices.canonicalize`` are checked against a plain Python fold, bit for
bit (-0.0 apart from 0.0, every nan counted as one), over values whose sums
cancel, overflow or meet inf - inf, and over runs of up to 2·10⁵ terms on
one coordinate, which must fold in bounded time.  pytest turns numpy's
warnings into errors, so a fold that warns fails here too.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from iohp.engine import _accumulate
from iohp.matrices import canonicalize

VALUES = st.sampled_from([-0.0, 0.0, 1.0, 1e16, -1e16, 1e308, -1e308,
                          math.inf, -math.inf, math.nan, 0.5, -3.0])


@st.composite
def triplet_lists(draw):
    """(n, entries) on an n x n grid; a list repeated 8 times makes runs
    long enough, and inputs large enough, for the key sort's path."""
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, n - 1), VALUES),
                            max_size=80))
    return n, entries * draw(st.sampled_from([1, 1, 8]))


def python_fold(entries):
    """Each coordinate's values added left to right in list order, then the
    coordinates in (row, col) order."""
    sums = {}
    for r, c, v in entries:
        sums[r, c] = sums[r, c] + v if (r, c) in sums else v
    return sorted(sums.items())


def bits(rows, cols, vals):
    vals = np.where(np.isnan(vals), np.nan, vals)  # one nan for every nan
    return rows.tolist(), cols.tolist(), vals.view(np.int64).tolist()


def expected(entries):
    want = python_fold(entries)
    return bits(np.array([r for (r, _), _ in want], dtype=np.int64),
                np.array([c for (_, c), _ in want], dtype=np.int64),
                np.array([v for _, v in want], dtype=np.float64))


@seed(31)
@settings(max_examples=300, deadline=None, database=None)
@given(triplet_lists())
def test_address_map_is_the_python_fold(case):
    _, entries = case
    table = np.array(entries, dtype=np.float64).reshape(-1, 3)
    rows, cols = table[:, :2].astype(np.int64).T
    got = _accumulate(rows, cols, table[:, 2])
    assert got.value.dtype == np.float64
    assert bits(got.row, got.col, got.value) == expected(entries)


@seed(37)
@settings(max_examples=300, deadline=None, database=None)
@given(triplet_lists())
def test_canonicalize_is_the_python_fold(case):
    n, entries = case
    from_entries = canonicalize(n, n, entries)
    from_arrays = canonicalize(n, n, arrays=(
        from_entries.rows.copy(), from_entries.cols.copy(),
        from_entries.vals.copy()))  # canonical input: returned as it is
    for got in (from_entries, from_arrays):
        assert bits(got.rows, got.cols, got.vals) == expected(entries)


def test_fold_is_left_to_right_not_pairwise():
    # 1.0 + 1e16 rounds to 1e16, then - 1e16 leaves 0.0; pairwise gives 1.0
    rows = cols = np.zeros(3, dtype=np.int64)
    vals = np.array([1.0, 1e16, -1e16])
    assert _accumulate(rows, cols, vals).value.tolist() == [0.0]
    assert canonicalize(1, 1, arrays=(rows, cols, vals)).vals.tolist() == [0.0]


LONG_VALUES = [-0.0, 0.0, 1.0, 1e16, -1e16, 0.5, -3.0, 1e-300, 2.0 ** -1074]


def long_runs(lengths, rng):
    """Entries of one run per length, on the coordinates (i, i), in a shuffled
    arrival order; every value is drawn from ``LONG_VALUES``."""
    coords = np.repeat(np.arange(len(lengths)), lengths)
    order = rng.permutation(len(coords))
    vals = rng.choice(LONG_VALUES, len(coords))
    return [(int(c), int(c), float(v)) for c, v in zip(coords[order], vals)]


@pytest.mark.parametrize("lengths", [[1], [2], [3], [1000], [200_000],
                                     [1, 1, 2, 3] * 250 + [5000]])
def test_long_runs_are_the_python_fold(lengths):
    # one step per term position would take 2·10⁵ steps for the longest run
    entries = long_runs(lengths, np.random.default_rng(len(lengths) + sum(lengths)))
    table = np.array(entries, dtype=np.float64).reshape(-1, 3)
    rows, cols = table[:, :2].astype(np.int64).T
    got = _accumulate(rows, cols, table[:, 2])
    assert bits(got.row, got.col, got.value) == expected(entries)
    n = len(lengths)
    got = canonicalize(n, n, arrays=(rows, cols, table[:, 2]))
    assert bits(got.rows, got.cols, got.vals) == expected(entries)


def test_one_long_run_folds_in_bounded_time():
    vals = np.random.default_rng(200_000).choice(LONG_VALUES, 200_000)
    rows = cols = np.zeros(len(vals), dtype=np.int64)
    start = time.perf_counter()
    got = canonicalize(1, 1, arrays=(rows, cols, vals))
    assert time.perf_counter() - start < 0.25
    assert bits(got.rows, got.cols, got.vals) == expected(
        [(0, 0, float(v)) for v in vals])
