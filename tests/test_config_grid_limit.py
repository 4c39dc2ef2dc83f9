"""A config file whose grid is wider than the 64-bit group bitmap fails at
``config``, naming its line and key, before any command plans or runs."""

import pytest

from iohp.cli import load_config, main
from iohp.matrices import TripletMatrix, write_matrix_market

LIMIT = "exceeds the 64-group limit of the 64-bit group bitmap"


@pytest.fixture
def operands(tmp_path):
    t = TripletMatrix(4, 4, [(0, 0, 1.0), (1, 2, 2.0), (3, 1, 3.0)])
    paths = [str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")]
    for path in paths:
        write_matrix_market(t, path)
    return paths


def config(tmp_path, text):
    path = tmp_path / "hw.cfg"
    path.write_text(text)
    return str(path)


def commands(cfg, a, b):
    return {
        "plan": ["plan", "--m", "64", "--k", "64", "--n", "64", "--da", "0.1",
                 "--db", "0.1", "--config", cfg],
        "sim": ["sim", "--a", a, "--b", b, "--config", cfg],
        "gcn": ["gcn", "--synthetic", "--nodes", "8", "--features", "6",
                "--hidden", "4", "--classes", "2", "--config", cfg],
    }


@pytest.mark.parametrize("command", ["plan", "sim", "gcn"])
@pytest.mark.parametrize("text, line, key", [
    ("g_na=65\n", 1, "g_na"),
    ("g_na=64\n# wide\ng_nb=65\n", 3, "g_nb"),
])
def test_wide_grid_fails_at_config(tmp_path, operands, capsys, command, text,
                                   line, key):
    cfg = config(tmp_path, text)
    report = tmp_path / "report"
    argv = commands(cfg, *operands)[command] + ["--report", str(report)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: config: {cfg} line {line}: {key}: {key}=65 {LIMIT}\n")
    assert not report.exists()


@pytest.mark.parametrize("command", ["plan", "sim", "gcn"])
def test_widest_grid_loads_and_runs(tmp_path, operands, capsys, command):
    cfg = config(tmp_path, "g_na=64\ng_nb=64\n")
    assert (load_config(cfg).g_na, load_config(cfg).g_nb) == (64, 64)
    assert main(commands(cfg, *operands)[command]) == 0
    assert capsys.readouterr().err == ""
