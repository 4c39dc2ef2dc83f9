"""One summation rule for the address map, for the run-wide merge and for
duplicate entries: each coordinate's values are a left fold in arrival
order, ``((v0 + v1) + v2) + ...``, as a sequential accumulator adds them.
``engine._accumulate``, ``engine.merge_output_blocks`` (whose parts arrive
in list order) and ``matrices.canonicalize`` are checked against a plain
Python fold, bit for bit (-0.0 apart from 0.0, every nan counted as one),
over values whose sums cancel, overflow or meet inf - inf, and over runs of
up to 2·10⁵ terms on one coordinate, which must fold in bounded time.
pytest turns numpy's warnings into errors, so a fold that warns fails here
too.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from iohp import costmodel, engine
from iohp.costmodel import Workload, run
from iohp.engine import OutputBlock, _accumulate, merge_output_blocks
from iohp.matrices import canonicalize, to_csc, to_csr
from iohp.planner import HardwareConfig, plan_partition
from iohp.synthetic import random_triplets

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


# --- the run-wide merge: parts in arrival order -----------------------------

def blocks_of(parts) -> list[OutputBlock]:
    """One ``OutputBlock`` per list of (row, col, value) entries."""
    return [OutputBlock(np.array([e[0] for e in p], dtype=np.int64),
                        np.array([e[1] for e in p], dtype=np.int64),
                        np.array([e[2] for e in p], dtype=np.float64))
            for p in parts]


def assert_merge_is_the_python_fold(parts):
    got = merge_output_blocks(blocks_of(parts))
    assert got.value.dtype == np.float64
    assert bits(got.row, got.col, got.value) == expected(
        [e for p in parts for e in p])


@seed(41)
@settings(max_examples=300, deadline=None, database=None)
@given(triplet_lists(), st.lists(st.integers(0, 640), max_size=6))
def test_merge_is_the_python_fold(case, cuts):
    # the entries cut into parts at the drawn places, in list order
    _, entries = case
    cuts = sorted(min(c, len(entries)) for c in cuts)
    assert_merge_is_the_python_fold(
        [entries[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(entries)])])


NAN = math.nan
PAIRS = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 1.0), (1e308, 1e308),
         (-1e308, -1e308), (math.inf, -math.inf), (NAN, 1.0), (1.0, 1e-300),
         (math.inf, -NAN), (-NAN, -math.inf)]
NAN_PAIRS = [(NAN, -NAN), (-NAN, NAN)]


@pytest.mark.parametrize("repeat", [1, 2, 9])  # numpy's loops vary with length
def test_merged_pairs_are_the_python_fold(repeat):
    # two parts that put pair i's terms on coordinate (i, 2i)
    pairs = (PAIRS + NAN_PAIRS) * repeat
    assert_merge_is_the_python_fold(
        [[(i, 2 * i, p[j]) for i, p in enumerate(pairs)] for j in (0, 1)])


# runs of one coordinate, one part per term, and their left folds, which
# need not be the rounded exact sum: that is 1.0 + 2**-52 for the first run,
# 1e308 for [1e308, 1e308, -1e308], 2**-1074 for the third from last, and
# 1.5 + 2**-52 and 1.0 - 2**-53 for the last two
BELOW = [2.0 ** -53 - 2.0 ** -106, 2.0 ** -107 - 2.0 ** -160]
RUN_FOLDS = [
    ([1.0, 2.0 ** -53, 2.0 ** -106], 1.0),  # a tie, broken only by the third
    ([1.0, -1.0, 0.0], 0.0),
    ([-0.0, -0.0, -0.0], -0.0),
    ([1e308, 1e308], math.inf),
    ([-1e308, -1e308], -math.inf),
    ([1e308, 1e308, -1e308], math.inf),  # a partial sum overflows
    ([1e308, 1e308, 1e308], math.inf),
    ([math.inf, 1.0, -math.inf], NAN),
    ([1e308, 1e308, -math.inf], NAN),  # inf - inf
    ([1e308, 1e308, NAN], NAN),
    ([math.inf, 1e308, 1e308], math.inf),
    ([math.inf, -math.inf, 1.0], NAN),
    ([math.inf, 1.0, 2.0], math.inf),
    ([NAN, 1.0, 2.0], NAN),
    ([1.0, 2.0 ** -1074, 2.0 ** -53, -1.0, -2.0 ** -53], -2.0 ** -53),
    ([1.5, BELOW[0], *[BELOW[1]] * 3], 1.5),
    ([1.0, -BELOW[0] / 2, *[-BELOW[1] / 2] * 3], 1.0),
]


@pytest.mark.parametrize("run, want", RUN_FOLDS)
def test_merged_run_is_its_left_fold(run, want):
    parts = [[(1, 2, v)] for v in run]
    got = merge_output_blocks(blocks_of(parts))
    assert bits(got.row, got.col, got.value) == ([1], [2], bits(
        got.row, got.col, np.array([want]))[2])
    assert_merge_is_the_python_fold(parts)


def test_merged_long_runs_are_the_python_fold():
    # coordinate i holds i + 1 terms of 0.1 * (j + 1), one per part, and
    # runs of 3 to 9 terms mix magnitudes, signs and exact results
    rng = np.random.default_rng(31)
    runs = [[0.1 * (j + 1) for j in range(i + 1)] for i in range(6)] + [
        (rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-20, 21, n)).tolist()
        for n in rng.integers(3, 10, 200)] + [
        [1.0, 1e100, 1.0, -1e100], [3.0, -5.0, 7.0], [2.0 ** -1074] * 3,
        [1e-310, 1e-310, -2e-311]]
    assert_merge_is_the_python_fold(
        [[(i, 2 * i, r[t]) for i, r in enumerate(runs) if t < len(r)]
         for t in range(max(map(len, runs)))])


def tie(x: float, third: float) -> list[float]:
    """x, half its gap upward, and a term that may break the tie."""
    half = (np.nextafter(x, np.inf) - x) / 2
    return [x, half, third * half]


BITS = st.integers(-2 ** 53 + 1, 2 ** 53 - 1)
TERM = st.one_of(
    st.floats(),  # every exponent, subnormals, +-0, +-inf and nans
    st.floats(-2.0 ** -1022, 2.0 ** -1022),
    BITS.map(lambda i: math.ldexp(i, -1074)),  # sums that underflow
    st.builds(math.ldexp, st.floats(1, 2) | st.floats(-2, -1),
              st.integers(-1074, 1023)),  # runs spanning 64 bits and more
    st.integers(-8, 8).map(float),
    st.sampled_from([1e308, -1e308, math.inf, -math.inf, NAN, -NAN, 0.0,
                     -0.0]))
RUN = st.one_of(
    st.lists(TERM, min_size=3, max_size=8),
    st.lists(TERM, min_size=2, max_size=4).map(  # an exact cancellation
        lambda xs: xs + [-x for x in xs[::-1]]),
    st.builds(tie, st.floats(-1e300, 1e300),
              st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0 ** -60,
                               -2.0 ** -60])),
    st.builds(lambda x, y, z: [x, y, -x, z], TERM, TERM, TERM))


def spread(run: list[float], n_parts: int):
    """The run and, for each term, one of ``n_parts`` parts."""
    return st.tuples(st.just(run), st.lists(st.integers(0, n_parts - 1),
                                            min_size=len(run),
                                            max_size=len(run)))


@seed(2027)
@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(2, 6).flatmap(lambda n_parts: st.lists(
    RUN.flatmap(lambda run: spread(run, n_parts)), min_size=1, max_size=40)))
def test_merged_runs_are_the_python_fold(case):
    # term t of run i lands on (i, 2i) in part where[t]; terms that share a
    # part keep their order there
    parts = [[] for _ in range(max(max(w) for _, w in case) + 1)]
    for i, (terms, where) in enumerate(case):
        for t, w in zip(terms, where):
            parts[w].append((i, 2 * i, t))
    assert_merge_is_the_python_fold(parts)


def test_merge_of_a_spilling_product_is_the_python_fold():
    # a batch-sized float product that spills and splits k: over a
    # thousand runs of three or more terms, in the parts run hands over
    rng = np.random.default_rng(164)
    wl = Workload(to_csc(random_triplets(218, 200, 0.1, rng)),
                  to_csr(random_triplets(200, 133, 0.1, rng)))
    cfg = HardwareConfig()
    merged = []

    def merge(parts):
        merged.append(parts)
        return engine.merge_output_blocks(parts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(costmodel, "merge_output_blocks", merge)
        _, stats = run(wl, plan_partition(cfg, wl.spec(cfg)), cfg, "ssmm")
    assert stats.t_k >= 2 and stats.spill_events > 0
    parts = [list(zip(p.row.tolist(), p.col.tolist(), p.value.tolist()))
             for p in merged[0]]
    counts = {}
    for r, c, _ in (e for p in parts for e in p):
        counts[r, c] = counts.get((r, c), 0) + 1
    assert sum(n > 2 for n in counts.values()) > 1000
    assert_merge_is_the_python_fold(parts)
