"""The SSMM result path: a CSC result reaches the writer in row-major
order, so the write does not sort it again.  The run-wide merge's sums are
checked against a Python left fold in ``tests/test_fold.py``.

``earlier_forms`` swaps in the earlier forms (a ``np.lexsort`` per sort and
a write that canonicalises the CSC's column-major entries); the seeded sweep
compares bytes against them.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from iohp import engine, matrices
from iohp.costmodel import Workload, run
from iohp.engine import OutputBlock
from iohp.errors import PsumOverflowError
from iohp.matrices import (CscMatrix, TripletMatrix, canonicalize, to_csc,
                           to_csr, write_matrix_market)
from iohp.planner import HardwareConfig, PartitionPlan
from iohp.synthetic import random_triplets
from test_matrices_reference import ref_write_matrix_market


def as_bytes(block: OutputBlock) -> tuple:
    return tuple((a.dtype.str, a.tobytes())
                 for a in (block.row, block.col, block.value))


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
