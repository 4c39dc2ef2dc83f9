"""Constructor and entry-point checks that no command-line path reaches: each
raises its typed error with a message naming the fault."""

import re

import numpy as np
import pytest

import iohp.cli
from iohp.cli import main
from iohp.costmodel import Workload, run
from iohp.encoding import encode_cp_csr, make_geometry
from iohp.errors import (BoundsError, DegenerateInputError, DimensionError,
                         MatrixFormatError)
from iohp.matrices import (CscMatrix, CsrMatrix, DenseMatrix, TripletMatrix,
                           to_csc, to_csr, to_dense)
from iohp.planner import (HardwareConfig, PartitionPlan, WorkloadSpec,
                          plan_partition)

PLAN = PartitionPlan(1, 1, 1, 2, 2, 2, "RABE", 0)
T = TripletMatrix(2, 2, [(0, 0, 1.0), (1, 1, 2.0)])


def exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def test_triplet_lengths_differ():
    with pytest.raises(MatrixFormatError,
                       match=exactly("rows, cols and vals lengths differ")):
        TripletMatrix(2, 2, arrays=([0, 1], [0], [1.0, 2.0]))


# (value, index, pointer) of a 2x2 matrix, and the fault each one breaks
@pytest.mark.parametrize("arrays, fault", [
    (([1.0, 2.0], [0], [0, 1, 2]), "value and {idx} lengths differ"),
    (([1.0, 2.0], [0, 1], [0, 2]), "{ptr} must have {n}+1 offsets"),
    (([1.0, 2.0], [0, 1], [1, 1, 2]), "{ptr} must start at 0 and end at nnz"),
    (([1.0, 2.0], [0, 1], [0, 1, 1]), "{ptr} must start at 0 and end at nnz"),
    (([1.0, 2.0], [0, 1], [0, 3, 2]), "{ptr} must be non-decreasing"),
])
@pytest.mark.parametrize("cls, idx, ptr, n", [
    (CscMatrix, "row_idx", "col_ptr", "n_cols"),
    (CsrMatrix, "col_idx", "row_ptr", "n_rows")])
def test_compressed_layout_checks(cls, idx, ptr, n, arrays, fault):
    value, index, pointer = (np.asarray(a) for a in arrays)
    with pytest.raises(MatrixFormatError,
                       match=exactly(fault.format(idx=idx, ptr=ptr, n=n))):
        cls(2, 2, value, index, pointer)


def test_dense_shape_mismatch():
    with pytest.raises(DimensionError,
                       match=exactly("data shape (2, 3) != (3,2)")):
        DenseMatrix(3, 2, np.zeros((2, 3)))


def test_run_rejects_unknown_mode():
    with pytest.raises(ValueError, match=exactly("unknown mode 'spgemm'")):
        run(Workload(to_csc(T), to_csr(T)), PLAN, HardwareConfig(), "spgemm")


@pytest.mark.parametrize("mode, b, kind", [
    ("ssmm", to_dense(T), "sparse"), ("sdmm", to_csr(T), "dense")])
def test_run_rejects_wrong_right_operand(mode, b, kind):
    with pytest.raises(DimensionError,
                       match=exactly(f"{mode} needs a {kind} right operand")):
        run(Workload(to_csc(T), b), PLAN, HardwareConfig(), mode)


@pytest.mark.parametrize("groups", [(0, 1), (1, 0)])
def test_make_geometry_rejects_zero_groups(groups):
    with pytest.raises(DegenerateInputError, match=exactly(
            f"group counts must be positive, got {groups}")):
        make_geometry(PLAN, (4, 4, 4), groups)


@pytest.mark.parametrize("block_k, block_col", [(1, 0), (0, 1), (-1, 0)])
def test_encode_cp_csr_outside_grid(block_k, block_col):
    geom = make_geometry(PLAN, (2, 2, 2), (1, 1))  # a 1x1 block grid
    with pytest.raises(BoundsError, match=exactly(
            f"block ({block_k},{block_col}) outside 1x1 grid")):
        encode_cp_csr(to_csr(T), geom, block_k, block_col)


def test_plan_partition_rejects_zero_dimension():
    spec = WorkloadSpec(0, 4, 4, 0.1, 0.1, m_a=64, m_b=64)
    with pytest.raises(DegenerateInputError,
                       match=exactly("workload dimensions must be positive")):
        plan_partition(HardwareConfig(), spec)


def test_main_reports_unexpected_failure_as_internal(monkeypatch, capsys):
    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(iohp.cli, "load_config", broken)
    rc = main(["plan", "--m", "4", "--k", "4", "--n", "4", "--da", "0.1",
               "--db", "0.1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: internal: boom\n")
