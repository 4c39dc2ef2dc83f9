"""Grids wider than the 64-bit group bitmap are rejected up front."""

import pytest

from iohp.cli import main
from iohp.encoding import make_geometry
from iohp.errors import GridLimitError
from iohp.planner import PartitionPlan

PLAN = PartitionPlan(1, 1, 1, 1, 1, 1, "RABE", 0)


@pytest.mark.parametrize("groups, name", [((65, 1), "g_na"), ((64, 65), "g_nb")])
def test_make_geometry_names_parameter_and_limit(groups, name):
    with pytest.raises(GridLimitError, match=f"{name}=65 .*64-bit group bitmap"):
        make_geometry(PLAN, (200, 10, 200), groups)


def test_widest_grid_accepted():
    geom = make_geometry(PLAN, (200, 10, 200), (64, 64))
    assert (geom.g_na, geom.g_nb) == (64, 64)


@pytest.mark.parametrize("m", [64, 130])
def test_sweep_cell_reports_limit_whatever_the_data(tmp_path, m):
    # a 64-row input leaves group 64 empty; the cell must fail all the same
    report = tmp_path / "sweep.csv"
    rc = main(["sweep", "--m", str(m), "--k", "40", "--n", str(m),
               "--da", "0.2", "--db", "0.2", "--grids", "64,65",
               "--buffer-scales", "1", "--report", str(report)])
    assert rc == 0
    rows = report.read_text().splitlines()[1:]
    assert rows[0].endswith(",ok")
    assert rows[1].endswith(
        "error: compute: g_na=65 exceeds the 64-group limit of the 64-bit "
        "group bitmap")
