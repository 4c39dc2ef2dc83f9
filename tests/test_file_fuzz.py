"""Seeded fuzz of the file readers through the CLI: ``sim`` and ``gcn`` on
drawn Matrix Market banners, size headers and bodies and on dense CSV files
either succeed or fail at a named stage, never ``internal``.  Declared sizes
stay below 100 rows and columns, since a header's dimensions size the
compressed pointer arrays."""

import contextlib
import io

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from iohp.cli import main

STAGES = ("parse", "plan", "compute", "verify", "step1_xw1", "step2_a_xw1",
          "step3_h1w2", "step4_a_h1w2")
BANNERS = ["%%MatrixMarket matrix coordinate real general",
           "%%MatrixMarket matrix coordinate integer general",
           "%%MatrixMarket matrix coordinate pattern general",
           "%%MatrixMarket matrix coordinate real symmetric",
           "%%MatrixMarket matrix coordinate pattern symmetric",
           "%%matrixmarket MATRIX Coordinate REAL General",
           "%%MatrixMarket matrix array real general",
           "%%MatrixMarket matrix coordinate complex general",
           "%%MatrixMarket matrix coordinate real hermitian",
           "%%MatrixMarket matrix", "% just a comment", "", "é"]
TOKENS = ["0", "-1", "1_0", "1.5", "1e3", "x", "nan", "inf", "-inf", "1e400",
          "-0.0", "99999999999999999999", "0x1", "%", "\xa0", "é"]
ODD_LINES = ["", "   ", "% c", "%", "1", "1 1 1 1", "\t1\t1\t1.0\t"]
DIM = st.integers(0, 99)  # a declared row or column count


def spoil(draw, lines: list[str]) -> list[str]:
    """``lines`` with zero to two faults: a token, a line or the banner
    swapped for an odd one, or a line dropped."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        i = draw(st.integers(0, max(0, len(lines) - 1)))
        kind = draw(st.sampled_from(["token", "token", "line", "drop",
                                     "banner"]))
        if kind == "banner":
            lines[:1] = [draw(st.sampled_from(BANNERS))]
        elif i >= len(lines):
            lines.append(draw(st.sampled_from(ODD_LINES)))
        elif kind == "token" and (tokens := lines[i].replace(",", " ").split()):
            tokens[draw(st.integers(0, len(tokens) - 1))] = \
                draw(st.sampled_from(TOKENS))
            lines[i] = ("," if "," in lines[i] else " ").join(tokens)
        elif kind == "line":
            lines.insert(i, draw(st.sampled_from(ODD_LINES)))
        else:
            del lines[i]
    return lines


def text(draw, lines: list[str]) -> str:
    """The lines, mostly ended by ``\\n``, now and then ``\\r\\n`` or ``\\r``."""
    ends = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])
    return "".join(line + draw(ends) for line in lines)


@st.composite
def mm_file(draw, n_rows: int, n_cols: int, faulty: bool) -> str:
    """A coordinate file of ``n_rows x n_cols``, with faults if ``faulty``."""
    banner = draw(st.sampled_from([b for b in BANNERS[:6] if n_rows == n_cols
                                   or "symmetric" not in b]))
    pattern, symmetric = "pattern" in banner.lower(), "symmetric" in banner
    lines = [banner] + draw(st.lists(st.sampled_from(ODD_LINES[:3]),
                                     max_size=1))
    entries = []
    for _ in range(draw(st.integers(0, min(30, n_rows * n_cols)))):
        r, c = draw(st.integers(1, n_rows)), draw(st.integers(1, n_cols))
        r, c = (max(r, c), min(r, c)) if symmetric else (r, c)
        value = "" if pattern else " " + draw(
            st.integers(-9, 9).map(str) | st.floats(-9, 9).map(repr))
        entries.append(f"{r} {c}{value}")
    lines += [f"{n_rows} {n_cols} {len(entries)}"] + entries
    return text(draw, spoil(draw, lines) if faulty else lines)


@st.composite
def csv_file(draw, n_rows: int, n_cols: int, faulty: bool) -> str:
    """A dense CSV file of ``n_rows x n_cols``, with faults if ``faulty``;
    its values come from one drawn seed, so a large file costs one draw."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lines = [",".join(map(repr, row))
             for row in rng.uniform(-9, 9, (n_rows, n_cols)).tolist()]
    return text(draw, spoil(draw, lines) if faulty else lines)


def run(argv: list[str]) -> None:
    """Run the CLI; it must succeed or fail at a known stage."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert rc == 1, rc
        assert err.getvalue().startswith(
            tuple(f"error: {stage}:" for stage in STAGES)), err.getvalue()


def write(path, text: str):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


@seed(2026)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_sim_reads_drawn_files(tmp_path_factory, data):
    m, k, n = (data.draw(DIM) for _ in range(3))
    k_b = k if data.draw(st.integers(0, 9)) else data.draw(DIM)
    faulty = data.draw(st.booleans())
    base = tmp_path_factory.getbasetemp()
    a = write(base / "a.mtx", data.draw(mm_file(m, k, faulty)))
    b = write(base / "b.mtx", data.draw(mm_file(k_b, n, faulty)))
    mode = data.draw(st.sampled_from(["auto", "ssmm", "sdmm"]))
    run(["sim", "--a", a, "--b", b, "--mode", mode])


@seed(2026)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_gcn_reads_drawn_files(tmp_path_factory, data):
    nodes, features, hidden, classes = (data.draw(DIM) for _ in range(4))
    faulty = data.draw(st.booleans())
    base = tmp_path_factory.getbasetemp()
    files = [("a.mtx", mm_file(nodes, nodes, faulty)),
             ("x.mtx", mm_file(nodes, features, faulty)),
             ("w1.csv", csv_file(features, hidden, faulty)),
             ("w2.csv", csv_file(hidden, classes, faulty))]
    argv = ["gcn"]
    for flag, (name, drawn) in zip(("--a", "--x", "--w1", "--w2"), files):
        argv += [flag, write(base / name, data.draw(drawn))]
    run(argv)


def test_gcn_nan_from_inf_weights_fails_at_verify(tmp_path):
    """inf·0 in the oracle's dense step is NaN, not a numpy warning."""
    eye = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 1\n"
    argv = ["gcn", "--a", write(tmp_path / "a.mtx", eye),
            "--x", write(tmp_path / "x.mtx", eye),
            "--w1", write(tmp_path / "w1.csv", "1,0\n0,1\n"),
            "--w2", write(tmp_path / "w2.csv", "inf,0\n0,1\n")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert err.getvalue() == "error: verify: result disagrees with dense oracle\n"
