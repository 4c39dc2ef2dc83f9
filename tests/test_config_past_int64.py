"""A config value past int64 needs no bound of its own.

A buffer capacity that large runs as an unbounded buffer; a stream width
that large fails at ``plan``, whose cost lattice refuses a cost past int64;
a frequency past the largest float is infinite and fails at ``config``, and
so does a capacity past it, which no float can cost.  No command reports
``internal``.
"""

import re

import pytest

from iohp.cli import main
from iohp.matrices import TripletMatrix, write_matrix_market

BIG = "99999999999999999999999"  # about 1e23, past int64's 9.2e18
PAST_INT64 = r"plan of \(m, k, n\)=\(\d+, \d+, \d+\) needs costs or block " \
             r"counts up to \d+, past int64"


def argv(command, tmp_path, cfg):
    a = tmp_path / "a.mtx"
    write_matrix_market(
        TripletMatrix(4, 4, [(0, 0, 1.0), (1, 2, 2.0), (3, 1, 3.0)]), a)
    return {
        "sim": ["sim", "--a", str(a), "--b", str(a)],
        "sweep": ["sweep", "--a", str(a), "--b", str(a), "--grids", "2",
                  "--buffer-scales", "1"],
        "gcn": ["gcn", "--synthetic", "--nodes", "8", "--features", "6",
                "--hidden", "4", "--classes", "2"],
    }[command] + ["--config", str(cfg)]


# (config line, command, exit code, stderr pattern, sweep cell status)
CASES = [(f"{key}={BIG}", command, 0, "", "ok")
         for key in ("c_a", "c_psum") for command in ("sim", "sweep", "gcn")]
CASES += [(f"{key}={BIG}", command, 1, f"error: {stage}: {PAST_INT64}\n", "")
          for key in ("bits_value", "bits_len")
          for command, stage in (("sim", "plan"), ("gcn", "step1_xw1"))]
CASES += [(f"{key}={BIG}", "sweep", 0, "",  # a failed cell: commas become ;
           "error: plan: " + PAST_INT64.replace(",", ";"))
          for key in ("bits_value", "bits_len")]
CASES += [("freq_hz=1e309", command, 1, r"error: config: \S+ line 1: "
           "freq_hz: freq_hz must be positive and finite\n", "")
          for command in ("sim", "sweep", "gcn")]
CASES += [pytest.param(f"{key}=1{'0' * 400}", command, 1,
                       r"error: config: \S+ line 1: " f"{key}: buffer "
                       "capacities must not pass the largest float\n", "",
                       id=f"{key}=1e400-{command}")
          for key in ("c_a", "c_psum") for command in ("sim", "sweep", "gcn")]


@pytest.mark.parametrize("line, command, code, err, cell", CASES)
def test_config_value_past_int64(tmp_path, capsys, line, command, code, err,
                                 cell):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text(line + "\n")
    assert main(argv(command, tmp_path, cfg)) == code
    captured = capsys.readouterr()
    assert re.fullmatch(err, captured.err)
    if command == "sweep" and code == 0:
        assert re.fullmatch(cell, captured.out.splitlines()[1].split(",")[-1])
