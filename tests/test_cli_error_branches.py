"""Each user-reachable CLI error branch fails with exit code 1 and exactly
one stderr line naming its stage."""

import pytest

from iohp.cli import main
from iohp.matrices import (DenseMatrix, TripletMatrix, write_dense_csv,
                           write_matrix_market)


def _mtx(tmp_path, name, t):
    path = tmp_path / name
    write_matrix_market(t, path)
    return str(path)


def _csv(tmp_path, name, n_rows, n_cols):
    path = tmp_path / name
    write_dense_csv(DenseMatrix.from_rows(
        [[1.0 + r + c for c in range(n_cols)] for r in range(n_rows)]), path)
    return str(path)


def _gcn_files(tmp_path, a_dims, w1_dims, w2_dims):
    a = _mtx(tmp_path, "a.mtx", TripletMatrix(*a_dims, [(0, 0, 1.0)]))
    x = _mtx(tmp_path, "x.mtx", TripletMatrix(a_dims[1], w1_dims[0],
                                              [(0, 0, 2.0)]))
    return ["--a", a, "--x", x, "--w1", _csv(tmp_path, "w1.csv", *w1_dims),
            "--w2", _csv(tmp_path, "w2.csv", *w2_dims)]


def _config(tmp_path, text):
    path = tmp_path / "hw.cfg"
    path.write_text(text)
    return str(path)


def _fails(capsys, argv, err):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err + "\n"


def test_gcn_non_square_adjacency(tmp_path, capsys):
    _fails(capsys, ["gcn"] + _gcn_files(tmp_path, (3, 2), (2, 2), (2, 1)),
           "error: parse: A must be square and conform with X")


def test_gcn_weight_chain_mismatch(tmp_path, capsys):
    _fails(capsys, ["gcn"] + _gcn_files(tmp_path, (2, 2), (2, 3), (2, 1)),
           "error: step3_h1w2: W1 columns != W2 rows")


def test_gcn_without_inputs(capsys):
    _fails(capsys, ["gcn"],
           "error: parse: need --a --x --w1 --w2 or --synthetic")


def test_gcn_step_that_cannot_plan_names_its_step(tmp_path, capsys):
    _fails(capsys, ["gcn", "--synthetic", "--nodes", "8", "--features", "6",
                    "--hidden", "4", "--classes", "2",
                    "--config", _config(tmp_path, "c_b=1\n")],
           "error: step1_xw1: infeasible even at unit tiles: buffer B "
           "constraint (2) k_t*n_t*d_b < c_b*r_x fails (1.0 >= 0.75)")


def test_plan_a_without_b(tmp_path, capsys):
    a = _mtx(tmp_path, "a.mtx", TripletMatrix(2, 2, [(0, 0, 1.0)]))
    _fails(capsys, ["plan", "--a", a], "error: parse: --a requires --b")


def test_sweep_with_partial_dims(capsys):
    _fails(capsys, ["sweep", "--m", "10"],
           "error: parse: need --a/--b files or all of --m --k --n --da --db")


@pytest.mark.parametrize("text, message", [
    ("c_a=0\n", "c_a: buffer capacities must be >= 1"),
    ("g_na=0\n", "g_na: grid dims must be >= 1"),
])
def test_config_lower_bounds(tmp_path, capsys, text, message):
    cfg = _config(tmp_path, text)
    _fails(capsys, ["plan", "--m", "8", "--k", "8", "--n", "8", "--da", "0.5",
                    "--db", "0.5", "--config", cfg],
           f"error: config: {cfg} line 1: {message}")


def test_plan_record_with_zero_tile(tmp_path, capsys):
    a = _mtx(tmp_path, "a.mtx", TripletMatrix(3, 3, [(0, 0, 1.0)]))
    plan = tmp_path / "plan.txt"
    plan.write_text("t_m=1\nt_k=1\nt_n=1\nm_t=0\nk_t=3\nn_t=1\nstrategy=RAF\n"
                    "predicted_dram=480\n")
    _fails(capsys, ["sim", "--a", a, "--b", a, "--mode", "ssmm",
                    "--plan", str(plan)],
           "error: plan: plan record: m_t=0 is not positive")
