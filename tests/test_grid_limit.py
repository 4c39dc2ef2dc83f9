"""Grids wider than the 64-bit group bitmap are rejected up front."""

import pytest

from iohp.cli import main
from iohp.encoding import make_geometry
from iohp.errors import GridLimitError
from iohp.planner import HardwareConfig, PartitionPlan

PLAN = PartitionPlan(1, 1, 1, 1, 1, 1, "RABE", 0)


@pytest.mark.parametrize("groups, name", [((65, 1), "g_na"), ((64, 65), "g_nb"),
                                          ((65, 65), "g_na")])
def test_hardware_config_names_parameter_and_limit(groups, name):
    message = f"^{name}=65 exceeds the 64-group limit of the 64-bit group bitmap$"
    g_na, g_nb = groups
    with pytest.raises(GridLimitError, match=message):
        HardwareConfig(g_na=g_na, g_nb=g_nb)
    with pytest.raises(GridLimitError, match=message):
        HardwareConfig().with_grid(g_na, g_nb)


def test_grid_positivity_is_checked_before_the_limit():
    with pytest.raises(ValueError, match="^grid dims must be >= 1$"):
        HardwareConfig(g_na=0, g_nb=65)


def test_widest_grid_accepted():
    geom = make_geometry(PLAN, (200, 10, 200), (64, 64))
    assert (geom.g_na, geom.g_nb) == (64, 64)


@pytest.mark.parametrize("m", [64, 130])
def test_sweep_cell_reports_limit_whatever_the_data(tmp_path, m):
    # a 64-row input leaves group 64 empty; the cell must fail all the same,
    # at config, before it plans
    report = tmp_path / "sweep.csv"
    rc = main(["sweep", "--m", str(m), "--k", "40", "--n", str(m),
               "--da", "0.2", "--db", "0.2", "--grids", "64,65",
               "--buffer-scales", "1", "--report", str(report)])
    assert rc == 0
    rows = report.read_text().splitlines()[1:]
    assert rows[0].endswith(",ok")
    assert rows[1].endswith(
        "error: config: g_na=65 exceeds the 64-group limit of the 64-bit "
        "group bitmap")
