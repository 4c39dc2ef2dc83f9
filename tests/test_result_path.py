"""The SSMM result path: the run-wide merge sums two-term runs as arrays,
longer runs with one TwoSum cascade (``_proved_sums``) and the runs it
cannot prove with ``_exact_sum``, and a CSC result reaches the writer in
row-major order, so the write does not sort it again.

``earlier_forms`` swaps in the earlier forms (a ``np.lexsort`` per sort, one
``_exact_sum`` per repeated coordinate, and a write that canonicalises the
CSC's column-major entries); the seeded sweep compares bytes against them.
"""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from iohp import costmodel, engine, matrices
from iohp.costmodel import Workload, run
from iohp.engine import OutputBlock, merge_output_blocks
from iohp.errors import PsumOverflowError
from iohp.matrices import (CscMatrix, TripletMatrix, canonicalize, to_csc,
                           to_csr, write_matrix_market)
from iohp.planner import HardwareConfig, PartitionPlan, plan_partition
from iohp.synthetic import random_triplets
from test_matrices_reference import ref_write_matrix_market

NAN = float(np.nan)
PAIRS = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 1.0), (1e308, 1e308),
         (-1e308, -1e308), (np.inf, -np.inf), (np.nan, 1.0), (1.0, 1e-300),
         (np.inf, -NAN), (-NAN, -np.inf)]
NAN_PAIRS = [(NAN, -NAN), (-NAN, NAN)]  # fsum decides which sign is kept


def as_bytes(block: OutputBlock) -> tuple:
    return tuple((a.dtype.str, a.tobytes())
                 for a in (block.row, block.col, block.value))


def pair_parts(pairs) -> list[OutputBlock]:
    """Two blocks that put pair i's terms on coordinate (i, 2i)."""
    at = np.arange(len(pairs))
    return [OutputBlock(at, 2 * at, np.array([p[j] for p in pairs]))
            for j in (0, 1)]


# --- two-term runs ----------------------------------------------------------

@pytest.mark.parametrize("repeat", [1, 2, 9])  # numpy's loops vary with length
def test_pair_sums_equal_the_exact_sum(repeat):
    pairs = (PAIRS + NAN_PAIRS) * repeat
    want = np.array([engine._exact_sum(np.array(p)) for p in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        got = merge_output_blocks(pair_parts(pairs))
    assert got.value.tobytes() == want.tobytes()
    assert np.signbit(got.value[:2]).tolist() == [False, False]  # fsum's +0.0


def test_pairs_alone_never_reach_the_exact_sum():
    with mock.patch.object(engine, "_exact_sum",
                           wraps=engine._exact_sum) as exact:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merge_output_blocks(pair_parts(PAIRS))
        assert exact.call_count == 0
        merge_output_blocks(pair_parts(PAIRS + NAN_PAIRS))
    assert exact.call_count == len(NAN_PAIRS)


# --- runs of three or more terms -------------------------------------------

def run_blocks(runs, where=None) -> tuple[list[OutputBlock], np.ndarray]:
    """Blocks that hold term t of run i at (i, 2i) in block ``where[i][t]``
    (term t in block t by default), and each run's ``_exact_sum`` over its
    terms in the merge's order, block by block: nan signs follow it."""
    where = where or [range(len(r)) for r in runs]
    parts = [([], []) for _ in range(max(map(max, where)) + 1)]
    want = []
    for i, (terms, blocks) in enumerate(zip(runs, where)):
        for t, b in zip(terms, blocks):
            parts[b][0].append(i)
            parts[b][1].append(t)
        order = sorted(range(len(terms)), key=lambda t: blocks[t])
        want.append(engine._exact_sum(np.array([terms[t] for t in order])))
    return [OutputBlock(np.array(r, dtype=np.int64),
                        2 * np.array(r, dtype=np.int64),
                        np.array(v, dtype=np.float64))
            for r, v in parts], np.array(want)


def test_long_runs_equal_the_exact_sum():
    # coordinate i holds i + 1 terms of 0.1 * (j + 1), one per block, and
    # runs of 3 to 9 terms mix magnitudes, signs and exact results
    rng = np.random.default_rng(31)
    runs = [[0.1 * (j + 1) for j in range(i + 1)] for i in range(6)] + [
        (rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-20, 21, n)).tolist()
        for n in rng.integers(3, 10, 200)] + [
        [1.0, 1e100, 1.0, -1e100], [3.0, -5.0, 7.0], [2.0 ** -1074] * 3,
        [1e-310, 1e-310, -2e-311]]
    blocks, want = run_blocks(runs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = merge_output_blocks(blocks)
    assert got.value.tobytes() == want.tobytes()
    with earlier_forms():
        assert as_bytes(got) == as_bytes(engine.merge_output_blocks(blocks))


def test_pairs_and_lone_entries_reach_neither_sum():
    lone = OutputBlock(np.arange(len(PAIRS), len(PAIRS) + 5),
                       np.zeros(5, dtype=np.int64), np.array(SPECIALS[:5]))
    with mock.patch.object(engine, "_proved_sums",
                           wraps=engine._proved_sums) as proved, \
            mock.patch.object(engine, "_exact_sum",
                              wraps=engine._exact_sum) as exact:
        merge_output_blocks(pair_parts(PAIRS) + [lone])
    assert proved.call_count == exact.call_count == 0


# the doubles just below 2**-53 and 2**-107
BELOW = [2.0 ** -53 - 2.0 ** -106, 2.0 ** -107 - 2.0 ** -160]
# Runs whose float sums the arrays cannot prove to be the correct rounding.
# In the last two, the float sum of the cascade's errors rounds away a
# residual that carries the sum past half the gap from 1.5 upward and from
# 1.0 downward, so their float sums, 1.5 and 1.0, are wrong.
UNPROVED = [[1.0, 2.0 ** -53, 2.0 ** -106],  # a tie, broken by a third term
            [1.0, -1.0, 0.0],  # an exact zero, whose sign fsum decides
            [-0.0, -0.0, -0.0],
            [1e308, 1e308, -1e308],  # an intermediate overflow
            [1e308, 1e308, 1e308],  # an overflow
            [np.inf, -np.inf, 1.0], [np.inf, 1.0, 2.0], [NAN, 1.0, 2.0],
            [1.0, 2.0 ** -1074, 2.0 ** -53, -1.0, -2.0 ** -53],  # 0 as floats
            [1.5, BELOW[0], *[BELOW[1]] * 3],
            [1.0, -BELOW[0] / 2, *[-BELOW[1] / 2] * 3]]


def test_unproved_runs_reach_the_exact_sum():
    blocks, want = run_blocks(UNPROVED)
    with mock.patch.object(engine, "_exact_sum",
                           wraps=engine._exact_sum) as exact:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = merge_output_blocks(blocks)
    assert sorted(c.args[0].tobytes() for c in exact.call_args_list) == \
        sorted(np.array(r).tobytes() for r in UNPROVED)
    assert got.value.tobytes() == want.tobytes()
    assert got.value[-2:].tolist() == [1.5 + 2.0 ** -52, 1.0 - 2.0 ** -53]
    assert [sum(r) for r in UNPROVED[-2:]] == [1.5, 1.0]


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
    st.sampled_from([1e308, -1e308, np.inf, -np.inf, NAN, -NAN, 0.0, -0.0]))
RUN = st.one_of(
    st.lists(TERM, min_size=3, max_size=8),
    st.lists(TERM, min_size=2, max_size=4).map(  # an exact cancellation
        lambda xs: xs + [-x for x in xs[::-1]]),
    st.builds(tie, st.floats(-1e300, 1e300),
              st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0 ** -60,
                               -2.0 ** -60])),
    st.builds(lambda x, y, z: [x, y, -x, z], TERM, TERM, TERM))


def spread(run: list[float], n_blocks: int):
    """The run and, for each term, one of ``n_blocks`` blocks."""
    return st.tuples(st.just(run), st.lists(st.integers(0, n_blocks - 1),
                                            min_size=len(run),
                                            max_size=len(run)))


@seed(2027)
@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(2, 6).flatmap(lambda n_blocks: st.lists(
    RUN.flatmap(lambda run: spread(run, n_blocks)), min_size=1, max_size=40)))
def test_merge_equals_the_exact_sum_of_each_run(case):
    blocks, want = run_blocks(*zip(*case))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes
        got = merge_output_blocks(blocks)
    assert got.row.tolist() == list(range(len(want)))
    assert got.value.tobytes() == want.tobytes()


def test_the_arrays_prove_almost_every_run_of_a_spilling_product():
    # a batch-sized float product that spills and splits k: over a
    # thousand runs of three or more terms, and almost none unproved
    rng = np.random.default_rng(164)
    a = to_csc(random_triplets(218, 200, 0.1, rng))
    b = to_csr(random_triplets(200, 133, 0.1, rng))
    cfg = HardwareConfig()
    merged = []

    def merge(parts):
        merged.append(parts)
        return engine.merge_output_blocks(parts)

    wl = Workload(a, b)
    with mock.patch.object(costmodel, "merge_output_blocks", merge), \
            mock.patch.object(engine, "_exact_sum",
                              wraps=engine._exact_sum) as exact:
        _, stats = run(wl, plan_partition(cfg, wl.spec(cfg)), cfg, "ssmm")
    assert stats.t_k >= 2 and stats.spill_events > 0
    parts = [p for p in merged[0] if p.nnz]
    _, _, _, starts = matrices.coordinate_runs(*(
        np.concatenate([getattr(p, f) for p in parts])
        for f in ("row", "col", "value")))
    long = int((np.diff(starts, append=sum(p.nnz for p in parts)) > 2).sum())
    assert long > 1000
    assert exact.call_count < long / 10


# --- the write path ---------------------------------------------------------

def test_written_ssmm_result_is_not_sorted_again(tmp_path):
    rng = np.random.default_rng(23)
    a = to_csc(random_triplets(30, 20, 0.2, rng))
    b = to_csr(random_triplets(20, 25, 0.2, rng))
    result, _ = run(Workload(a, b), PartitionPlan(1, 1, 1, 4, 3, 2, "RABE", 0),
                    HardwareConfig(c_psum=8, s=2, g_na=2, g_nb=2), "ssmm")
    assert result.nnz > 100
    with mock.patch.object(matrices, "coordinate_runs",
                           side_effect=AssertionError("sorted")):
        write_matrix_market(result, tmp_path / "got.mtx")
    ref_write_matrix_market(result, tmp_path / "ref.mtx")
    assert (tmp_path / "got.mtx").read_bytes() == \
        (tmp_path / "ref.mtx").read_bytes()


def test_repeated_csc_coordinate_still_folds(tmp_path):
    # column 0 holds row 1 three times: folded left in storage order, so
    # 1e16 + 1.0 rounds back to 1e16 and the run sums to 0.0
    m = CscMatrix(3, 2, np.array([1e16, 1.0, -1e16, 2.5, -0.0, -0.0]),
                  np.array([1, 1, 1, 0, 2, 2]), np.array([0, 3, 6]))
    with mock.patch.object(matrices, "coordinate_runs",
                           wraps=matrices.coordinate_runs) as runs:
        write_matrix_market(m, tmp_path / "got.mtx")
    assert runs.call_count == 1
    ref_write_matrix_market(m, tmp_path / "ref.mtx")
    with earlier_forms():
        matrices.write_matrix_market(m, tmp_path / "earlier.mtx")
    got = (tmp_path / "got.mtx").read_bytes()
    assert got == (tmp_path / "ref.mtx").read_bytes() == \
        (tmp_path / "earlier.mtx").read_bytes()
    assert got.decode().splitlines()[2:] == [
        "1 2 2.5", "2 1 0.0", "3 2 -0.0"]


# --- the earlier forms, and a seeded sweep against them ---------------------

def merge_each_run(parts: list[OutputBlock]) -> OutputBlock:
    """The merge with every repeated coordinate summed by ``_exact_sum``."""
    parts = [p for p in parts if p.nnz]
    if not parts:
        return OutputBlock.empty()
    if len(parts) == 1:
        return parts[0]
    rows, cols, vals, starts = matrices.coordinate_runs(*(
        np.concatenate([getattr(p, f) for p in parts])
        for f in ("row", "col", "value")))
    ends = np.append(starts[1:], len(rows))
    out = vals[starts].astype(np.float64)
    for i in np.flatnonzero(ends - starts > 1).tolist():
        out[i] = engine._exact_sum(vals[starts[i]:ends[i]])
    return OutputBlock(rows[starts], cols[starts], out)


def write_canonicalized(m, path) -> None:
    """The write that canonicalises a CSC's entries as stored."""
    if not isinstance(m, TripletMatrix):
        m = canonicalize(m.n_rows, m.n_cols, arrays=matrices._coords(m))
    write_matrix_market(m, path)


@contextlib.contextmanager
def earlier_forms():
    with contextlib.ExitStack() as stack:
        for target, name, new in (
                (matrices, "coordinate_order",
                 lambda major, minor: np.lexsort((minor, major))),
                (engine, "merge_output_blocks", merge_each_run),
                (costmodel, "merge_output_blocks", merge_each_run),
                (matrices, "write_matrix_market", write_canonicalized)):
            stack.enter_context(mock.patch.object(target, name, new))
        yield


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308,
                     1e-300])


def with_specials(vals: np.ndarray, rng, share: float) -> np.ndarray:
    """A copy of ``vals`` with about ``share`` of them drawn from SPECIALS."""
    vals = vals.copy()
    hit = rng.random(len(vals)) < share
    vals[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return vals


def csc_bytes(m) -> tuple:
    return tuple(a.tobytes() for a in (m.value, m.row_idx, m.col_ptr))


def sweep_case(seed: int, path) -> list:
    """Every artefact of one seeded case: the operands' CSC/CSR, the SSMM
    result, its report and written file (or the overflow text), a merge of
    blocks that share coordinates, and a canonicalised shuffle."""
    rng = np.random.default_rng(seed)
    big = seed % 5 >= 3  # sorts of KEY_SORT_MIN pairs or more, by the key
    m, k, n = (int(x) for x in rng.integers(1, 49 if big else 13, 3))
    values = ("int", "float")[seed % 2]
    share = (0.0, 0.05, 0.2)[seed % 3]
    ta, tb = (random_triplets(r, c, rng.uniform(*(0.05, 0.25) if big else
                                                (0.1, 0.7)), rng, values)
              for r, c in ((m, k), (k, n)))
    ta, tb = (TripletMatrix(t.n_rows, t.n_cols, arrays=(
        t.rows, t.cols, with_specials(t.vals, rng, share))) for t in (ta, tb))
    cfg = HardwareConfig(
        c_psum=int(rng.integers(16 if big else 1, 65)), s=(None, 1, 2, 3)[seed % 4],
        g_na=int(rng.integers(1, 5)), g_nb=int(rng.integers(1, 5)),
        overflow_policy="fail" if rng.random() < 0.25 else "spill")
    plan = PartitionPlan(1, 1, 1, int(rng.integers(1, m + 1)),
                         int(rng.integers(1, k + 1)), int(rng.integers(1, n + 1)),
                         ("RAF", "RBF", "RABE")[int(rng.integers(3))], 0)
    a, b = to_csc(ta), to_csr(tb)
    out = [csc_bytes(a), tuple(x.tobytes() for x in (b.value, b.col_idx,
                                                     b.row_ptr))]
    try:
        result, stats = run(Workload(a, b), plan, cfg, "ssmm")
    except PsumOverflowError as e:
        out.append(str(e))
    else:
        matrices.write_matrix_market(result, path)
        out += [csc_bytes(result), stats.to_text(), path.read_bytes()]
    height, width = (20, 30) if big else (4, 6)
    parts = []  # up to 7 blocks over one grid: runs of 1 to 7 terms
    for c in map(np.unique, rng.integers(0, height * width, (
            int(rng.integers(1, 8)), height * width // 2))):
        vals = rng.uniform(-1, 1, len(c)) * 10.0 ** rng.integers(-8, 17, len(c))
        parts.append(OutputBlock(*np.divmod(c, width),
                                 with_specials(vals, rng, 4 * share)))
    out.append(as_bytes(engine.merge_output_blocks(parts)))
    order = rng.permutation(ta.nnz)
    twice = np.concatenate([order, order[:ta.nnz // 2]])
    c = canonicalize(m, k, arrays=(ta.rows[twice], ta.cols[twice],
                                   ta.vals[twice]))
    out.append((c.rows.tobytes(), c.cols.tobytes(), c.vals.tobytes()))
    return out


SWEEP_SEEDS = range(520)


@pytest.mark.parametrize("chunk", range(4))
def test_sweep_equals_the_earlier_forms(chunk, tmp_path):
    with np.errstate(all="ignore"):  # inf and nan operands
        for seed in SWEEP_SEEDS[chunk::4]:
            got = sweep_case(seed, tmp_path / "got.mtx")
            with earlier_forms():
                want = sweep_case(seed, tmp_path / "want.mtx")
            assert got == want, seed
