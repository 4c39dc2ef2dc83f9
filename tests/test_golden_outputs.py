"""Golden output files: the SHA-256 of the ``--out`` file of fixed, seeded
``iohp`` commands, so a change that moves any result byte (a summation
order, a written digit) fails here, while ``tests/golden_reports.txt`` pins
the reports.  Each command's inputs are drawn from its own seed and written
as Matrix Market files (a B that lists one coordinate twice, or symmetric
pattern files, where ``WRITERS`` says so); the report is read back only to
check that the spilling cases still spill and split k.  To re-record after
an intended result change, run ``PYTHONPATH=src python
tests/test_golden_outputs.py`` and list the moved lines in the change's
notes.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from iohp.cli import main
from iohp.matrices import TripletMatrix, write_matrix_market
from iohp.synthetic import random_triplets

GOLDEN = Path(__file__).with_name("golden_outputs.txt")

# small buffers and stores: the planner splits k and the stores spill
SPILL_CONFIG = "c_a=128\nc_b=128\nc_psum=32\ng_na=2\ng_nb=2\n"

# name: (seed, (m, k, n), density, values, extra flags, config text)
SPMM_CASES = {
    "spmm_ssmm_float": (1, (40, 30, 35), 0.15, "float", ["--mode", "ssmm"], ""),
    "spmm_ssmm_int": (2, (40, 30, 35), 0.15, "int", ["--mode", "ssmm"], ""),
    "spmm_ssmm_float_spill": (3, (60, 90, 50), 0.12, "float",
                              ["--mode", "ssmm"], SPILL_CONFIG),
    "spmm_ssmm_int_spill": (4, (60, 90, 50), 0.12, "int",
                            ["--mode", "ssmm"], SPILL_CONFIG),
    "spmm_sdmm_float": (5, (40, 30, 12), 0.15, "float", ["--mode", "sdmm"], ""),
    "spmm_sdmm_float_repeat": (6, (40, 30, 12), 0.15, "float",
                               ["--mode", "sdmm"], ""),
    "spmm_ssmm_symmetric_pattern": (8, (30, 30, 30), 0.15, "float",
                                    ["--mode", "ssmm"], ""),
}
SPILLING = ("spmm_ssmm_float_spill", "spmm_ssmm_int_spill")
GCN_ARGS = ["gcn", "--synthetic", "--nodes", "40", "--features", "24",
            "--hidden", "6", "--classes", "3", "--da", "0.1", "--dx", "0.2",
            "--seed", "7"]


def write_repeating(t: TripletMatrix, path: Path) -> None:
    """``t`` with its first entry listed once more at the end, as stored."""
    write_matrix_market(TripletMatrix(t.n_rows, t.n_cols, arrays=(
        np.append(t.rows, t.rows[:1]), np.append(t.cols, t.cols[:1]),
        np.append(t.vals, t.vals[:1]))), path)


def write_symmetric_pattern(t: TripletMatrix, path: Path) -> None:
    """The pattern of ``t``'s lower triangle, as a symmetric pattern file."""
    low = t.rows >= t.cols
    path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                    f"{t.n_rows} {t.n_cols} {int(low.sum())}\n" + "".join(
                        f"{r + 1} {c + 1}\n" for r, c in
                        zip(t.rows[low].tolist(), t.cols[low].tolist())),
                    encoding="ascii")


# name: the writers of A's and B's files, where not write_matrix_market
WRITERS = {"spmm_sdmm_float_repeat": (write_matrix_market, write_repeating),
           "spmm_ssmm_symmetric_pattern": (write_symmetric_pattern,) * 2}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_spmm(name: str, tmp: Path) -> dict:
    """Run one spmm case; return its ``--out`` file and its text report's
    fields."""
    seed, (m, k, n), density, values, flags, config = SPMM_CASES[name]
    rng = np.random.default_rng(seed)
    paths = {}
    writers = WRITERS.get(name, (write_matrix_market,) * 2)
    for operand, (rows, cols), write in zip("ab", ((m, k), (k, n)), writers):
        paths[operand] = tmp / f"{name}_{operand}.mtx"
        write(random_triplets(rows, cols, density, rng, values), paths[operand])
    out, report = tmp / f"{name}.out", tmp / f"{name}.report"
    argv = ["spmm", "--a", str(paths["a"]), "--b", str(paths["b"]),
            "--out", str(out), "--report", str(report),
            "--report-format", "text"] + flags
    if config:
        (tmp / f"{name}.cfg").write_text(config, encoding="ascii")
        argv += ["--config", str(tmp / f"{name}.cfg")]
    assert main(argv) == 0
    fields = dict(line.split("=", 1) for line in
                  report.read_text(encoding="ascii").splitlines() if "=" in line)
    return {"out": out, "fields": fields}


def render(tmp: Path) -> str:
    lines = [f"{name} {sha256(run_spmm(name, tmp)['out'])}\n"
             for name in SPMM_CASES]
    out = tmp / "gcn.csv"
    assert main(GCN_ARGS + ["--out", str(out), "--report", str(tmp / "g.txt")]) == 0
    return "".join(lines) + f"gcn_synthetic {sha256(out)}\n"


def test_spilling_cases_split_k_and_spill(tmp_path):
    for name in SPILLING:
        fields = run_spmm(name, tmp_path)["fields"]
        assert int(fields["T_K"]) >= 3, name
        assert int(fields["spill_events"]) > 0, name


def test_outputs_match_golden(tmp_path):
    assert render(tmp_path) == GOLDEN.read_text(encoding="ascii")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(render(Path(tmp)), encoding="ascii")
