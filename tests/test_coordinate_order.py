"""``coordinate_order`` sorts ``KEY_SORT_MIN`` or more (major, minor) pairs
with one argsort of an int64 key where that key is exact and lexicographic,
and with ``np.lexsort`` everywhere else; either way the order is
``np.lexsort((minor, major))``'s.  Checked directly and through
``coordinate_runs``, ``_compress`` and ``canonicalize``, whose error names the
first bad entry as it was given.  ``stable_order``'s radix paths equal
``np.argsort(keys, kind="stable")`` at each width's edges."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iohp import matrices
from iohp.errors import BoundsError, CoordinateError
from iohp.matrices import (KEY_SORT_MIN, TripletMatrix, canonicalize,
                           coordinate_order, coordinate_runs, stable_order)

INT64_MAX = 2 ** 63 - 1


def wide(values, dtype=np.int64) -> np.ndarray:
    """``values`` repeated in turn to ``KEY_SORT_MIN`` entries."""
    return np.resize(np.array(values, dtype=dtype), KEY_SORT_MIN)


def lexsort_calls(major, minor):
    """``coordinate_order``'s result and how many times it ran lexsort."""
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        order = coordinate_order(major, minor)
    return order, lexsort.call_count


def assert_lexsort_order(major, minor):
    """The order, the runs and the compressed form all follow lexsort."""
    want = np.lexsort((minor, major))
    assert np.array_equal(coordinate_order(major, minor), want)
    vals = np.arange(len(major), dtype=np.float64)  # names each input entry
    rows, cols, got_vals, starts = coordinate_runs(major, minor, vals)
    assert np.array_equal(got_vals, vals[want])
    assert np.array_equal(rows, major[want]) and np.array_equal(cols, minor[want])
    keys = list(zip(rows.tolist(), cols.tolist()))
    assert starts.tolist() == [i for i in range(len(keys))
                               if i == 0 or keys[i] != keys[i - 1]]


def assert_compress_order(major, minor, n_major):
    want = np.lexsort((minor, major))
    vals = np.arange(len(major), dtype=np.float64)
    got_vals, got_minor, ptr = matrices._compress(major, minor, vals, n_major)
    assert np.array_equal(got_vals, vals[want])
    assert np.array_equal(got_minor, minor[want])
    assert ptr.tolist() == [0] + np.cumsum(
        np.bincount(major, minlength=n_major)).tolist()


coords = st.integers(0, 2 * KEY_SORT_MIN).flatmap(lambda n: st.tuples(
    hnp.arrays(np.int64, n, elements=st.integers(0, 6)),
    hnp.arrays(np.int64, n, elements=st.integers(0, 6))))


@settings(max_examples=200, deadline=None)
@given(coords)
def test_key_order_is_lexsort_order(case):
    major, minor = case
    assert_lexsort_order(major, minor)
    assert_compress_order(major, minor, 7)
    assert lexsort_calls(major, minor)[1] == int(len(major) < KEY_SORT_MIN)


@pytest.mark.parametrize("n, calls", [(KEY_SORT_MIN - 1, 1), (KEY_SORT_MIN, 0)])
def test_few_pairs_go_to_lexsort(n, calls):
    rng = np.random.default_rng(n)
    major, minor = rng.integers(0, 9, n), rng.integers(0, 9, n)
    assert_lexsort_order(major, minor)
    assert lexsort_calls(major, minor)[1] == calls


def test_seeded_sweep_with_wide_and_narrow_dtypes():
    rng = np.random.default_rng(83)
    for _ in range(100):
        n = int(rng.integers(0, 3 * KEY_SORT_MIN))
        hi_major, hi_minor = (int(x) for x in 10 ** rng.integers(0, 7, 2))
        major = rng.integers(0, hi_major, n)
        minor = rng.integers(0, hi_minor, n)
        for dtype in (np.int64, np.int32, np.uint64, np.uint16):
            assert_lexsort_order(major.astype(dtype), minor.astype(dtype))
        assert_lexsort_order(major.astype(np.uint64), minor)  # mixed kinds
        assert_compress_order(major, minor, hi_major)


def test_empty_input():
    for dtype in (np.int64, np.float64):
        empty = np.empty(0, dtype=dtype)
        assert_lexsort_order(empty, empty)
        assert coordinate_order(empty, empty).tolist() == []
    assert_compress_order(np.empty(0, np.int64), np.empty(0, np.int64), 3)


@pytest.mark.parametrize("major_max, minor_max", [
    (INT64_MAX, 0),  # key 2**63 - 1, width 1
    (2 ** 62 - 1, 1),  # key 2**63 - 1, width 2
])
def test_largest_key_takes_the_key(major_max, minor_max):
    major, minor = wide([major_max, 0, major_max, 3]), wide([0, minor_max,
                                                             minor_max, 0])
    assert_lexsort_order(major, minor)
    assert lexsort_calls(major, minor)[1] == 0


@pytest.mark.parametrize("major_max, minor_max", [
    (2 ** 62, 1),  # key 2**63 + 1
    (2 ** 62 - 1, 2),  # key 2**63 + 2**62 - 1
    ((2 ** 63 + 1) // 3 - 1, 2),  # key 2**63, width 3
    (2 ** 32, INT64_MAX),  # the width alone is 2**63
])
def test_key_past_int64_goes_to_lexsort(major_max, minor_max):
    major, minor = wide([major_max, 0, major_max, 1]), wide([minor_max,
                                                             minor_max, 0, 0])
    assert_lexsort_order(major, minor)
    assert lexsort_calls(major, minor)[1] == 1


@pytest.mark.parametrize("major_max", [2 ** 63, 2 ** 63 + 5])
def test_uint64_past_int64_goes_to_lexsort(major_max):
    major = wide([major_max, 0, 2 ** 63 - 1], np.uint64)
    minor = np.zeros(KEY_SORT_MIN, dtype=np.uint64)
    assert_lexsort_order(major, minor)
    assert lexsort_calls(major, minor)[1] == 1


def test_negative_coordinates_go_to_lexsort():
    # a key would put (0, -5) = -5 before (-1, 0) = -1
    major, minor = wide([-1, 0, 2, 0]), wide([0, -5, 1, -5])
    assert_lexsort_order(major, minor)
    assert lexsort_calls(major, minor)[1] == 1
    assert_compress_order(wide([1, 0, 1, 0]), minor, 2)  # minor < 0 only


def test_non_integer_coordinates_go_to_lexsort():
    # a key over width 6 would put (1.5, 0) = 9 before (1.0, 5) = 11
    major = wide([1.5, 1.0, 0.0, 1.0], np.float64)
    minor = wide([0.0, 5.0, 1.0, 5.0], np.float64)
    assert_lexsort_order(major, minor)
    assert lexsort_calls(major, minor)[1] == 1
    assert_compress_order(wide([1, 1, 0, 1]), minor, 2)  # minor floats only


def test_integer_valued_floats_go_to_lexsort():
    major = wide([2.0, 0.0, 2.0], np.float64)
    minor = wide([1.0, 3.0, 0.0], np.float64)
    assert_lexsort_order(major, minor)
    assert lexsort_calls(major, minor)[1] == 1


@pytest.mark.parametrize("n, rows, cols, error, text", [
    (3, [-1, 0, 2], [0, -5, 1], BoundsError, "entry (-1,0) outside 3x3"),
    (3, [2, -1, 0, -2], [0, 1, 2, 2], BoundsError, "entry (-1,1) outside 3x3"),
    (3, [1.5, 1.0, 0.0], [0, 5, 1], CoordinateError,
     "entry (1.5,0) has a non-integer coordinate"),
    (4, [2.0, 0.0, 1.0], [0.5, 3.0, 1.0], CoordinateError,
     "entry (2.0,0.5) has a non-integer coordinate"),
    (3, [0.0, 1.0], [2.5, -1.0], CoordinateError,
     "entry (0.0,2.5) has a non-integer coordinate"),
])
def test_canonicalize_names_the_first_bad_entry_as_given(
        n, rows, cols, error, text):
    # the entry TripletMatrix names, before any sort, for few pairs and for
    # enough to pass the size guard
    for size in (len(rows), KEY_SORT_MIN):
        arrays = (np.resize(np.array(rows), size), np.resize(np.array(cols), size),
                  np.ones(size))
        for build in (canonicalize, TripletMatrix):
            with pytest.raises(error) as raised:
                build(n, n, arrays=arrays)
            assert type(raised.value) is error and str(raised.value) == text


def edge_keys(bound: int, dtype, rng) -> np.ndarray:
    """Keys in ``[0, bound)`` that ``dtype`` holds: both ends, repeats of
    each, values around each 16-bit digit's carry, and random fill."""
    top = min(bound - 1, int(np.iinfo(dtype).max))
    edges = [0, top, 0, top, 1, top - 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1]
    fill = rng.integers(0, top, 300, endpoint=True, dtype=np.uint64)
    keys = np.concatenate([np.array([e for e in edges if e <= top], np.uint64),
                           fill, fill[:40], np.full(25, top, np.uint64)])
    return rng.permutation(keys).astype(dtype)


@pytest.mark.parametrize("bound", [2 ** 16, 2 ** 16 + 1, 2 ** 32, 2 ** 32 + 1])
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
def test_stable_order_is_the_stable_argsort(bound, dtype):
    rng = np.random.default_rng(bound % 1000 + np.dtype(dtype).itemsize)
    keys = edge_keys(bound, dtype, rng)
    for case in (keys, np.sort(keys, kind="stable"), keys[::-1].copy(),
                 keys[:1], np.empty(0, dtype)):
        got = stable_order(case, bound)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(case, kind="stable"))
