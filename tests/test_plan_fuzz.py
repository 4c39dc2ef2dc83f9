"""Seeded fuzz of plan records through ``sim --plan``: mutations of the
planner's own record (missing, repeated, renamed and non-integer fields;
zero, negative and huge values; unknown strategies; bytes past ASCII) either
run or fail at ``plan``, never ``internal``."""

import contextlib
import io

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from iohp.cli import main
from iohp.matrices import TripletMatrix, write_matrix_market
from iohp.planner import HardwareConfig, WorkloadSpec, plan_partition

# small buffers on a 2x2 grid, so the planner's records are multi-tile
CONFIG = "c_a=6\nc_b=6\nc_psum=8\ng_na=2\ng_nb=2\n"
CFG = HardwareConfig(c_a=6, c_b=6, c_psum=8, g_na=2, g_nb=2)
A = TripletMatrix(9, 7, [(r, (3 * r + j) % 7, 1.0 + r - j)
                         for r in range(9) for j in range(2)])
B = TripletMatrix(7, 8, [(k, (5 * k + j) % 8, 0.5 * k + j)
                         for k in range(7) for j in range(3)])
FIELDS = ["t_m", "t_k", "t_n", "m_t", "k_t", "n_t", "strategy",
          "predicted_dram", "T_M", "m", "tm", ""]
VALUES = ["0", "-1", "-7", "1", "2", "3", "4", "99999999999999999999999",
          "1" + "0" * 400, "1.5", "1e3", "abc", "", "0x10", "1_0", " +2 ",
          "nan", "inf", "RAF", "RBF", "RABE", "raf", "RAF RBF", "SPARCH"]
NON_ASCII = [b"\xc3\xa9", b"\xff", b"\xa0", "٣".encode()]


def record(mode: str) -> list[str]:
    """The planner's record for ``A @ B`` in ``mode``, as ``plan`` writes it."""
    b_dense = mode == "sdmm"
    spec = WorkloadSpec.from_counts(A.n_rows, A.n_cols, B.n_cols, A.nnz, B.nnz,
                                    CFG, b_dense=b_dense)
    cfg = CFG.sdmm_variant() if b_dense else CFG
    return plan_partition(cfg, spec).to_text().splitlines()


line = st.integers(0, 9)
mutation = st.one_of(
    st.tuples(st.just("drop"), line, st.none()),
    st.tuples(st.just("repeat"), line, st.sampled_from(VALUES)),
    st.tuples(st.just("name"), line, st.sampled_from(FIELDS)),
    st.tuples(st.just("value"), line, st.sampled_from(VALUES)),
    st.tuples(st.just("value"), line, st.integers(-2, 12).map(str)))


def mutate(lines: list[str], op: str, where: int, arg) -> list[str]:
    """Apply one mutation to a copy of ``lines``; an index wraps around."""
    lines = list(lines)
    if not lines:
        return lines
    i = where % len(lines)
    name, _, value = lines[i].partition("=")
    if op == "drop":
        del lines[i]
    elif op == "repeat":  # the same name again, with a drawn value
        lines.insert(where % (len(lines) + 1), f"{name}={arg}")
    elif op == "name":
        lines[i] = f"{arg}={value}"
    else:
        lines[i] = f"{name}={arg}"
    return lines


def sim(base, mode: str, data: bytes) -> tuple[int, str, str]:
    """``sim --plan`` on ``A @ B`` with the record ``data``, in-process."""
    a, b, cfg, plan = (base / name for name in
                       ("a.mtx", "b.mtx", "hw.cfg", "fuzz.plan"))
    write_matrix_market(A, a)
    write_matrix_market(B, b)
    cfg.write_text(CONFIG)
    plan.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["sim", "--a", str(a), "--b", str(b), "--mode", mode,
                   "--config", str(cfg), "--plan", str(plan)])
    return rc, out.getvalue(), err.getvalue()


@seed(2026)
@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(["ssmm", "sdmm"]), st.lists(mutation, max_size=3),
       st.one_of(st.none(), st.tuples(st.integers(0, 200),
                                      st.sampled_from(NON_ASCII))))
def test_mutated_plan_record_runs_or_fails_at_plan(tmp_path_factory, mode,
                                                   mutations, raw):
    lines = record(mode)
    for op, where, arg in mutations:
        lines = mutate(lines, op, where, arg)
    data = "\n".join(lines).encode("ascii") + b"\n"
    if raw is not None:
        at, byte = raw
        data = data[:at] + byte + data[at:]
    base = tmp_path_factory.getbasetemp()
    rc, out, err = sim(base, mode, data)
    if rc == 0:
        assert err == "" and out.startswith("# command=sim")
    else:  # one line, naming the record or, for a byte past ASCII, its path
        assert rc == 1 and out == "" and err.count("\n") == 1
        assert err.startswith(("error: plan: plan record",
                               f"error: plan: {base / 'fuzz.plan'}: ")), err
    assert raw is None or rc == 1


def test_unmutated_records_run(tmp_path):
    # the fuzz starts from multi-tile records that run, in both modes
    for mode in ("ssmm", "sdmm"):
        lines = record(mode)
        assert set(lines[:3]) != {"t_m=1", "t_k=1", "t_n=1"}
        assert sim(tmp_path, mode, "\n".join(lines).encode())[0] == 0
