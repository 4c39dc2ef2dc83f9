import numpy as np
import pytest

from iohp.cli import _check_plan_record, main
from iohp.encoding import make_geometry
from iohp.matrices import (TripletMatrix, load_matrix_market, to_dense,
                           write_matrix_market)
from iohp.planner import HardwareConfig, PartitionPlan, WorkloadSpec, dram_access
from test_matrices_reference import dense_matmul


def test_spmm_consumes_plan_record(tmp_path):
    ta = TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)])
    tb = TripletMatrix(4, 4, [(0, 0, 1.0), (1, 2, 4.0), (2, 1, 6.0)])
    a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(ta, a_path)
    write_matrix_market(tb, b_path)
    plan_path = tmp_path / "plan.txt"
    assert main(["plan", "--a", str(a_path), "--b", str(b_path),
                 "--report", str(plan_path)]) == 0
    out = tmp_path / "c.mtx"
    report = tmp_path / "r.csv"
    rc = main(["spmm", "--a", str(a_path), "--b", str(b_path), "--mode",
               "ssmm", "--plan", str(plan_path), "--out", str(out),
               "--report", str(report)])
    assert rc == 0
    got = to_dense(load_matrix_market(str(out))).data
    oracle = dense_matmul(to_dense(ta), to_dense(tb)).data
    assert np.array_equal(got, oracle)


def test_bad_plan_record_reports_plan_stage(tmp_path, capsys):
    ta = TripletMatrix(2, 2, [(0, 0, 1.0)])
    a_path = tmp_path / "a.mtx"
    write_matrix_market(ta, a_path)
    bad = tmp_path / "plan.txt"
    bad.write_text("t_m=1\n")  # missing fields
    rc = main(["sim", "--a", str(a_path), "--b", str(a_path), "--mode",
               "ssmm", "--plan", str(bad)])
    assert rc != 0
    assert "plan" in capsys.readouterr().err


def _plan_run(tmp_path, record: str):
    ta = TripletMatrix(3, 3, [(0, 0, 1.0), (2, 1, 2.0)])
    a_path = tmp_path / "a.mtx"
    write_matrix_market(ta, a_path)
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(record)
    return main(["sim", "--a", str(a_path), "--b", str(a_path), "--mode",
                 "ssmm", "--plan", str(plan_path)])


# the record the planner writes for a 3x3 product on the default 8x8 grid
FITTING = ("t_m=1\nt_k=1\nt_n=1\nm_t=1\nk_t=3\nn_t=1\nstrategy=RAF\n"
           "predicted_dram=480\n")


def test_fitting_plan_record_runs(tmp_path):
    assert _plan_run(tmp_path, FITTING) == 0


def test_plan_record_missing_field_is_named(tmp_path, capsys):
    rc = _plan_run(tmp_path, FITTING.replace("t_k=1\n", ""))
    assert rc != 0
    assert capsys.readouterr().err == "error: plan: plan record is missing t_k\n"


def test_plan_record_unknown_strategy_rejected(tmp_path, capsys):
    rc = _plan_run(tmp_path, FITTING.replace("RAF", "FOO"))
    assert rc != 0
    assert capsys.readouterr().err == (
        "error: plan: plan record: unknown strategy 'FOO'\n")


def test_plan_record_for_another_workload_rejected(tmp_path, capsys):
    rc = _plan_run(tmp_path, FITTING.replace("t_n=1", "t_n=9"))
    assert rc != 0
    assert capsys.readouterr().err == (
        "error: plan: plan record does not fit this workload: "
        "expected t_n=1, found 9\n")


def test_plan_record_with_a_wrong_cost_rejected(tmp_path, capsys):
    record = FITTING.replace("RAF", "RBF").replace("=480", "=7")
    rc = _plan_run(tmp_path, record)
    assert rc != 0
    assert capsys.readouterr().err == (
        "error: plan: plan record: predicted_dram=7, but RBF costs 480 bits "
        "here\n")


def test_plan_record_with_an_unavailable_strategy_rejected(tmp_path, capsys):
    # RAF's whole A row strip (3 * 2/9 entries) exceeds c_a * r_x = 0.5
    cfgfile = tmp_path / "hw.cfg"
    cfgfile.write_text("c_a=1\nc_b=1\nr_x=0.5\n")
    ta = TripletMatrix(3, 3, [(0, 0, 1.0), (2, 1, 2.0)])
    a_path = tmp_path / "a.mtx"
    write_matrix_market(ta, a_path)
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(FITTING)
    rc = main(["sim", "--a", str(a_path), "--b", str(a_path), "--mode",
               "ssmm", "--plan", str(plan_path), "--config", str(cfgfile)])
    assert rc != 0
    assert capsys.readouterr().err == (
        "error: plan: plan record: strategy RAF is not available for this "
        "workload (available: RABE)\n")


def test_sdmm_plan_record_from_the_planner_runs(tmp_path):
    # a record the planner wrote for a dense B re-costs to its own prediction
    ta = TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0)])
    tb = TripletMatrix(4, 2, [(r, c, 1.0 + r + c) for r in range(4)
                              for c in range(2)])
    a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(ta, a_path)
    write_matrix_market(tb, b_path)
    plan_path = tmp_path / "plan.txt"
    assert main(["plan", "--a", str(a_path), "--b", str(b_path), "--mode",
                 "sdmm", "--report", str(plan_path)]) == 0
    assert main(["sim", "--a", str(a_path), "--b", str(b_path), "--mode",
                 "sdmm", "--plan", str(plan_path)]) == 0


@pytest.mark.parametrize("extra, err", [
    ("this line means nothing\n",
     "plan record line 9: expected field=value"),
    ("t_mm=99\n", "plan record line 9: t_mm: unknown field"),
])
def test_plan_record_stray_line_is_named(tmp_path, capsys, extra, err):
    assert _plan_run(tmp_path, FITTING + extra) == 1
    assert capsys.readouterr().err == f"error: plan: {err}\n"


@pytest.mark.parametrize("line, field, bad", [
    (2, "t_k", "one"), (4, "m_t", "1.5"), (8, "predicted_dram", "")])
def test_plan_record_non_integer_is_named(tmp_path, capsys, line, field, bad):
    lines = FITTING.splitlines()
    assert lines[line - 1].startswith(f"{field}=")
    lines[line - 1] = f"{field}={bad}"
    assert _plan_run(tmp_path, "\n".join(lines) + "\n") == 1
    assert capsys.readouterr().err == (
        f"error: plan: plan record line {line}: {field}: expected an integer, "
        f"got {bad!r}\n")


@pytest.mark.parametrize("extra, first", [("m_t=1\n", 4), ("m_t=2\n", 4),
                                          ("strategy=RAF\n", 7)])
def test_plan_record_repeated_field_names_both_lines(tmp_path, capsys, extra,
                                                     first):
    # the same value or another: neither copy may win silently
    field = extra.partition("=")[0]
    assert _plan_run(tmp_path, FITTING + extra) == 1
    assert capsys.readouterr().err == (
        f"error: plan: plan record line 9: {field}: already given on line "
        f"{first}\n")


@pytest.mark.parametrize("field, largest", [("m_t", 1), ("k_t", 3),
                                            ("n_t", 1)])
def test_plan_record_tile_past_its_dimension_rejected(tmp_path, capsys, field,
                                                      largest):
    # the tile counts still fit (one tile each), but no row, inner index or
    # column lies past ceil(3 / 8), 3 and ceil(3 / 8)
    record = FITTING.replace(f"{field}={largest}\n", f"{field}=1000000\n")
    assert record != FITTING
    assert _plan_run(tmp_path, record) == 1
    assert capsys.readouterr().err == (
        f"error: plan: plan record: {field}=1000000 exceeds the largest tile "
        f"of this workload, {field}={largest}\n")


def test_tile_counts_are_exact_past_float_precision():
    # float division rounds (2**53 + 1) / 2**53 to 1: one strip would end at
    # row 2**53 and leave the last row outside every block
    m, cfg = 2 ** 53 + 1, HardwareConfig()
    wide = PartitionPlan(2, 2, 2, 2 ** 50, 2 ** 53, 2 ** 50, "RABE", 0)
    geom = make_geometry(wide, (m, m, m), (cfg.g_na, cfg.g_nb))
    assert (geom.t_m, geom.t_k, geom.t_n) == (2, 2, 2)
    assert geom.g_na * geom.m_t * (geom.t_m - 1) < m
    plan = PartitionPlan(2, 1, 1, 2 ** 50, 1, 1, "RABE", 0)
    spec = WorkloadSpec.from_counts(m, 1, 1, 1, 1, cfg)
    cost = dict(dram_access(plan, cfg, spec))["RABE"]
    _check_plan_record(PartitionPlan(2, 1, 1, 2 ** 50, 1, 1, "RABE", cost),
                       spec, cfg)
