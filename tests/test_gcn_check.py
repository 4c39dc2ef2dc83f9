"""The ``gcn`` command's check, computed from the sparse operands.

``cli.gcn_check`` forms ``A·((A·(X·W1))·W2)`` with one weighted bincount per
output column of each sparse-dense product.  Here it is held to two
references: the dense chain of ``dense_matmul`` on ``to_dense`` operands
(Cora-sized, within a tolerance, since the dense product sums in another
order), and a plain Python loop over the triplets in stored order (small
drawn chains, bit for bit).  The check's memory stays below 4 MB at Cora
size, the command never builds a nodes × nodes or nodes × features array,
and one seeded text report is pinned field for field.
"""

import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iohp import cli
from iohp.matrices import DenseMatrix, TripletMatrix, to_dense
from iohp.synthetic import random_dense, random_triplets
from test_matrices_reference import dense_matmul

CORA = (2708, 1433, 16, 7)  # nodes, features, hidden, classes
DENSITY_A, DENSITY_X = 0.0014, 0.0127  # the gcn defaults and perfbench's


def dense_chain(a, x, w1, w2) -> np.ndarray:
    """The ground truth: the same association on dense operands."""
    a_dense = to_dense(a)
    return dense_matmul(a_dense, dense_matmul(dense_matmul(
        a_dense, dense_matmul(to_dense(x), w1)), w2)).data


def loop_product(t: TripletMatrix, b: np.ndarray) -> np.ndarray:
    """``t · b``: each triplet in stored order adds its products onto a
    matrix of +0.0."""
    width = b.shape[1]
    out = [[0.0] * width for _ in range(t.n_rows)]
    for r, c, v in t.entries:
        for j in range(width):
            out[r][j] += v * float(b[c, j])
    return np.array(out, dtype=np.float64).reshape(t.n_rows, width)


def loop_check(a, x, w1, w2) -> np.ndarray:
    return loop_product(a, loop_product(a, loop_product(x, w1.data))
                        @ w2.data)


def cli_operands(argv, monkeypatch):
    """The operands ``gcn`` hands its check, caught on the way in."""
    seen, check = [], cli.gcn_check

    def catch(*operands):
        seen.append(operands)
        return check(*operands)

    monkeypatch.setattr(cli, "gcn_check", catch)
    assert cli.main(argv) == 0
    (operands,) = seen
    return operands


class TestAgainstDenseChain:
    def test_cora_sized_draw(self):
        rng = np.random.default_rng(11)
        n, f, h, c = CORA
        a = random_triplets(n, n, DENSITY_A, rng)
        x = random_triplets(n, f, DENSITY_X, rng)
        w1, w2 = random_dense(f, h, rng), random_dense(h, c, rng)
        got = cli.gcn_check(a, x, w1, w2)
        assert got.shape == (n, c)
        assert np.max(np.abs(got - dense_chain(a, x, w1, w2))) < 1e-12

    def test_cora_sized_check_peaks_below_4_mb(self):
        """The check works one output column at a time: on the draw above it
        peaked at 1.2 MB under tracemalloc, against 19 MB for one bincount
        over nnz x width cells."""
        rng = np.random.default_rng(11)
        n, f, h, c = CORA
        a = random_triplets(n, n, DENSITY_A, rng)
        x = random_triplets(n, f, DENSITY_X, rng)
        w1, w2 = random_dense(f, h, rng), random_dense(h, c, rng)
        tracemalloc.start()
        try:
            cli.gcn_check(a, x, w1, w2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_synthetic_seed_42(self, tmp_path, monkeypatch):
        operands = cli_operands(["gcn", "--synthetic", "--seed", "42",
                                 "--report", str(tmp_path / "r.txt")],
                                monkeypatch)
        a, x, w1, w2 = operands
        assert (a.n_rows, x.n_cols, w1.n_cols, w2.n_cols) == CORA
        got = cli.gcn_check(*operands)
        assert np.max(np.abs(got - dense_chain(*operands))) < 1e-12


finite = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
values = st.one_of(finite, st.just(-0.0), st.just(0.0))


@st.composite
def chains(draw):
    """A small chain with unsorted, possibly repeated triplets; A may be
    empty, rows may be empty and W1 or W2 may have no columns."""
    nodes = draw(st.integers(1, 5))
    features, hidden, classes = (draw(st.integers(0, 4)) for _ in range(3))

    def triplets(n_rows, n_cols):
        if n_rows * n_cols == 0:
            return TripletMatrix(n_rows, n_cols, [])
        return TripletMatrix(n_rows, n_cols, draw(st.lists(st.tuples(
            st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), values),
            max_size=12)))

    def dense(n_rows, n_cols):
        cells = draw(st.lists(values, min_size=n_rows * n_cols,
                              max_size=n_rows * n_cols))
        return DenseMatrix(n_rows, n_cols,
                           np.array(cells, dtype=np.float64).reshape(
                               n_rows, n_cols))

    return (triplets(nodes, nodes), triplets(nodes, features),
            dense(features, hidden), dense(hidden, classes))


def rows(*values):
    return DenseMatrix.from_rows(values)


@settings(max_examples=300, deadline=None)
@given(chains())
@example((TripletMatrix(2, 2, []), TripletMatrix(2, 3, [(1, 2, 1.5)]),
          rows([1.0, -1.0], [2.0, 0.5], [-0.0, 3.0]), rows([1.0], [2.0])))
@example((TripletMatrix(2, 2, [(0, 1, 1.0)]), TripletMatrix(2, 2, [(0, 0, 2.0)]),
          DenseMatrix(2, 0, np.zeros((2, 0))), DenseMatrix(0, 3, np.zeros((0, 3)))))
@example((TripletMatrix(3, 3, [(2, 2, -1.0), (0, 1, -0.0), (2, 2, 0.5)]),
          TripletMatrix(3, 1, [(1, 0, -0.0), (2, 0, 2.0)]),
          rows([-0.0, 1.0]), rows([1.0], [-2.0])))
# one-column W1 and W2: the per-column kernels' narrowest case
@example((TripletMatrix(3, 3, [(0, 2, 0.5), (2, 0, -1.0), (0, 2, 2.0)]),
          TripletMatrix(3, 2, [(2, 1, 3.0), (0, 0, -0.0), (2, 1, 0.25)]),
          rows([1.5], [-2.0]), rows([-0.5])))
def test_check_equals_triplet_loop_bit_for_bit(chain):
    """Explicit cases: an empty A, a zero-width W1, and -0.0 products onto
    empty rows and repeated, unsorted triplets."""
    got, want = cli.gcn_check(*chain), loop_check(*chain)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_gcn_builds_no_nodes_by_nodes_array(tmp_path, monkeypatch):
    """6000 nodes: a dense adjacency is 288 MB and dense features 96 MB."""
    def refuse(*_):
        raise AssertionError("gcn must not densify a sparse operand")

    monkeypatch.setattr(cli, "to_dense", refuse)
    report = tmp_path / "r.txt"
    tracemalloc.start()
    try:
        rc = cli.main(["gcn", "--synthetic", "--nodes", "6000",
                       "--features", "2000", "--da", "0.0001", "--dx", "0.001",
                       "--seed", "5", "--report", str(report),
                       "--report-format", "text"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert "oracle_check=pass\n" in report.read_text()
    assert peak < 32e6


def test_gcn_text_report_is_pinned(capsys):
    """Every field of one small seeded run, ``max_abs_error`` included."""
    rc = cli.main(["gcn", "--synthetic", "--nodes", "40", "--features", "30",
                   "--hidden", "4", "--classes", "3", "--da", "0.1",
                   "--dx", "0.2", "--seed", "7", "--report-format", "text"])
    assert rc == 0
    golden = Path(__file__).with_name("golden_gcn_report.txt")
    assert capsys.readouterr().out == golden.read_text(encoding="ascii")
