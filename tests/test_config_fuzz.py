"""Seeded fuzz of the hardware config file: mutations of the README's default
config (names, values, ``#``, ``=``, repeated and dropped lines, out-of-range
grids) either plan or fail at ``config`` or ``plan``, never ``internal``."""

import contextlib
import io

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from iohp.cli import main

DEFAULT = """\
c_a=2048        # input buffer A capacity (value-stream slots)
c_b=2048        # input buffer B capacity
c_psum=256      # psum store capacity per PE (doubled in sdmm mode)
g_na=8          # PE grid rows (A row groups)
g_nb=8          # PE grid columns (B column groups)
r_x=0.75        # reserved-storage ratio guarding the density estimate
bits_value=64   # original-format stream widths for DRAM byte accounting
bits_index=32
bits_len=16
freq_hz=800e6
""".splitlines()
NAMES = ["c_a", "c_b", "c_psum", "g_na", "g_nb", "r_x", "bits_value",
         "bits_index", "bits_len", "freq_hz", "C_A", "g_nc", "s",
         "overflow_policy", "", " g_na ", "g_na g_nb"]
VALUES = ["0", "-1", "1", "2", "63", "64", "65", "128", "0.5", "8.0", "1e3",
          "nan", "inf", "-inf", "abc", "", "0x10", "1_0", "+8", " 9 ", "=",
          "99999999999999999999999", "1" + "0" * 400, "1e400", "é"]
GRID_VALUES = ["0", "-8", "1", "64", "65", "1000"]
PLAN = ["plan", "--m", "64", "--k", "64", "--n", "64", "--da", "0.05",
        "--db", "0.05"]

line_index = st.integers(0, len(DEFAULT))
mutation = st.one_of(
    st.tuples(st.just("name"), line_index, st.sampled_from(NAMES)),
    st.tuples(st.just("value"), line_index, st.sampled_from(VALUES)),
    st.tuples(st.just("insert"), line_index,
              st.tuples(st.integers(0, 40), st.sampled_from("#= "))),
    st.tuples(st.just("cut"), line_index, st.sampled_from("#= ")),
    st.tuples(st.just("repeat"), line_index, st.integers(0, len(DEFAULT))),
    st.tuples(st.just("drop"), line_index, st.none()),
    st.tuples(st.just("grid"), st.sampled_from(["g_na", "g_nb"]),
              st.sampled_from(GRID_VALUES)))


def mutate(lines, op, where, arg):
    """Apply one mutation to a copy of ``lines``; an index wraps around."""
    lines = list(lines)
    if op == "grid":
        return lines + [f"{where}={arg}"]
    if not lines:
        return lines
    i = where % len(lines)
    name, sep, value = lines[i].partition("=")
    if op == "name":
        lines[i] = arg + sep + value
    elif op == "value":
        lines[i] = name + (sep or "=") + arg
    elif op == "insert":
        at, char = arg
        lines[i] = lines[i][:at] + char + lines[i][at:]
    elif op == "cut":
        lines[i] = lines[i].replace(arg, "", 1)
    elif op == "repeat":
        lines.insert(arg % (len(lines) + 1), lines[i])
    else:
        del lines[i]
    return lines


@seed(2025)
@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(mutation, max_size=4))
def test_mutated_config_fails_at_config_or_plan(tmp_path_factory, mutations):
    lines = DEFAULT
    for op, where, arg in mutations:
        lines = mutate(lines, op, where, arg)
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(PLAN + ["--config", str(path)])
    if rc == 0:
        assert err.getvalue() == "" and out.getvalue().startswith("t_m=")
    else:
        assert rc == 1 and out.getvalue() == ""
        assert err.getvalue().startswith(("error: config:", "error: plan:")), \
            err.getvalue()
