"""`sim` is `spmm` without `--out`: same checks, same report."""

import numpy as np
import pytest

from iohp.cli import main
from iohp.matrices import (TripletMatrix, load_dense_csv, load_matrix_market,
                           to_dense, write_matrix_market)
from iohp.synthetic import random_triplets


@pytest.mark.parametrize("command", ["spmm", "sim"])
def test_dimension_mismatch_names_both_shapes(tmp_path, capsys, command):
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(TripletMatrix(2, 3, [(0, 0, 1.0)]), a)
    write_matrix_market(TripletMatrix(4, 2, [(0, 0, 1.0)]), b)
    assert main([command, "--a", str(a), "--b", str(b)]) == 1
    assert capsys.readouterr().err == (
        "error: parse: dimension mismatch: A is 2x3, B is 4x2\n")


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_sim_report_is_spmm_report_but_for_command(tmp_path, fmt):
    rng = np.random.default_rng(17)
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(random_triplets(30, 20, 0.1, rng), a)
    write_matrix_market(random_triplets(20, 25, 0.1, rng), b)
    reports = {}
    for command in ("spmm", "sim"):
        path = tmp_path / f"{command}.txt"
        assert main([command, "--a", str(a), "--b", str(b), "--mode", "ssmm",
                     "--report-format", fmt, "--report", str(path)]) == 0
        reports[command] = path.read_text()
    assert "command=sim" in reports["sim"]
    assert reports["sim"].replace("command=sim", "command=spmm") == \
        reports["spmm"]


def test_spmm_sum_past_the_double_range_writes_inf(tmp_path):
    # the second k product spills (s = n_t = 1) and the merge meets
    # 1e308 + 1e308: the result is the dense product's inf, not an error
    a, b, out = tmp_path / "a.mtx", tmp_path / "b.mtx", tmp_path / "c.mtx"
    write_matrix_market(TripletMatrix(1, 2, [(0, 0, 1e200), (0, 1, 1e200)]), a)
    write_matrix_market(TripletMatrix(2, 1, [(0, 0, 1e108), (1, 0, 1e108)]), b)
    assert main(["spmm", "--a", str(a), "--b", str(b), "--mode", "ssmm",
                 "--out", str(out), "--report", str(tmp_path / "r.txt")]) == 0
    assert out.read_text().splitlines()[1:] == ["1 1 1", "1 1 inf"]


@pytest.mark.parametrize("entries, want", [
    ("1 1 1e308\n1 1 1e308\n", "1 1 inf"),
    ("1 1 inf\n1 1 -inf\n", "1 1 nan"),
])
def test_spmm_duplicates_past_the_double_range_warn_nothing(
        tmp_path, capsys, entries, want):
    # A's two entries on one coordinate sum to inf, or inf - inf to nan, as
    # the file is read; numpy's warnings are errors here
    a, b, out = tmp_path / "a.mtx", tmp_path / "b.mtx", tmp_path / "c.mtx"
    a.write_text("%%MatrixMarket matrix coordinate real general\n1 1 2\n"
                 + entries)
    write_matrix_market(TripletMatrix(1, 1, [(0, 0, 1.0)]), b)
    assert main(["spmm", "--a", str(a), "--b", str(b), "--mode", "ssmm",
                 "--out", str(out), "--report", str(tmp_path / "r.txt")]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1:] == ["1 1 1", want]


@pytest.mark.parametrize("grid", ["8x8", "1x1"])
@pytest.mark.parametrize("b_value", [1e200, 1e108])
@pytest.mark.parametrize("command, mode", [("sim", "ssmm"), ("spmm", "ssmm"),
                                           ("spmm", "sdmm")])
def test_values_past_the_double_range_warn_nothing(tmp_path, capsys, command,
                                                    mode, b_value, grid):
    # C's first column: 1e200 * 1e200 overflows in the product, 1e200 *
    # 1e108 in the sum of two, which a 1x1 grid's store holds (s = n_t = 2)
    # and the 8x8 grid spills; numpy's warnings are errors here, so a
    # warning fails the command
    a, b, out = tmp_path / "a.mtx", tmp_path / "b.mtx", tmp_path / "c.out"
    config = tmp_path / "grid.cfg"
    config.write_text("g_na=1\ng_nb=1\n" if grid == "1x1" else "")
    a_data = np.full((2, 2), 1e200)
    b_data = np.array([[b_value, 0.0], [b_value, 0.0]])
    for path, data in ((a, a_data), (b, b_data)):
        write_matrix_market(TripletMatrix(2, 2, [
            (i, j, data[i, j]) for i, j in zip(*np.nonzero(data))]), path)
    args = [command, "--a", str(a), "--b", str(b), "--mode", mode,
            "--config", str(config), "--report", str(tmp_path / "r.txt")]
    assert main(args + (["--out", str(out)] if command == "spmm" else [])) == 0
    assert capsys.readouterr().err == ""
    if command == "sim":
        return
    with np.errstate(over="ignore"):
        want = a_data @ b_data
    assert np.isposinf(want[:, 0]).all()
    got = (load_dense_csv(out) if mode == "sdmm"
           else to_dense(load_matrix_market(out))).data
    assert got.tobytes() == want.tobytes()
