"""`sim` is `spmm` without `--out`: same checks, same report."""

import numpy as np
import pytest

from iohp.cli import main
from iohp.matrices import TripletMatrix, write_matrix_market
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
