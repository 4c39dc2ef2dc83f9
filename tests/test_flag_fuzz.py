"""Seeded fuzz of the CLI's numeric flags: ``--sdmm-threshold`` of ``spmm``,
``sim`` and ``sweep``; the dims and densities of ``plan`` and ``sweep``;
``sweep``'s ``--seed``, ``--grids`` and ``--buffer-scales``; and the sizes,
densities and seed of ``gcn --synthetic``.  Values are drawn among 0,
negatives, nan, ±inf, -0.0, 1e-300, one past each bound and ints past 2⁶³,
always in a form that argparse's ``type`` accepts.  Every draw exits 0, or 1
with ``error: <stage>:``, never ``internal``; a sweep cell that fails names
its stage in its status column.

``sweep`` and ``gcn`` draw their operands, so every dimension they get is 64
or below; only ``plan``, which draws nothing, gets huge ones.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from iohp.cli import main
from iohp.matrices import write_matrix_market
from iohp.synthetic import random_triplets

STAGED = re.compile(r"error: (parse|config|plan|compute|verify|step\d_\w+): ")
PAST_INT64 = [2**63, 2**64, 10**30]
# (in range, out of range) per flag; a drawn dimension stays at 64 or below
SIZE = ([1, 2, 17, 64], [0, -1, -(2**63) - 1])
PLAN_SIZE = ([1, 2, 17, 64, 65, 2**31, 2**63 - 1] + PAST_INT64, SIZE[1])
SEED = ([0, 1, 2**32, 2**63 - 1] + PAST_INT64, [-1, -(2**64)])
# densities and thresholds lie in [0, 1]: -5e-324 and 1 + 2**-52 sit one past
UNIT = (["0", "-0.0", "5e-324", "1e-300", "0.25", "0.5", "1"],
        ["-5e-324", "1.0000000000000002", "-1", "2", "nan", "inf", "-inf",
         "1e308"])
# grid sides lie in 1-64; a buffer scale past 8.36e152 takes c_psum past a
# float; an empty list sweeps no cell
GRIDS = (["1", "2", "8", "64", "1,64", "", "8,,"],
         ["0", "-1", "65", f"1,{2**63}", "nan", "1e-300", "-0.0"])
SCALES = (["5e-324", "1e-300", "0.5", "1", "2", "1e150", "8.3e152", "0.5,2", ""],
          ["0", "-0.0", "-1", "nan", "inf", "-inf", "8.4e152", "1e308", "1,inf"])


@st.composite
def flags(draw, **pools):
    """(the flag drawn out of range or None, one ``--name=value`` per flag):
    every flag but at most one takes a value in range.  The ``=`` keeps a
    value such as -inf from reading as an option."""
    names = [name.replace("_", "-") for name in pools]
    broken = draw(st.sampled_from([None] * len(names) + names))
    return broken, [f"--{name}={draw(st.sampled_from(pool[name == broken]))}"
                    for name, pool in zip(names, pools.values())]


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_staged(rc, out, err):
    if rc == 0:
        assert err == "" and out
    else:
        assert rc == 1 and out == "" and STAGED.match(err), err


@pytest.fixture(scope="module")
def operand_files(tmp_path_factory):
    rng, where = np.random.default_rng(5), tmp_path_factory.mktemp("flags")
    paths = [str(where / "a.mtx"), str(where / "b.mtx")]
    write_matrix_market(random_triplets(20, 16, 0.2, rng), paths[0])
    write_matrix_market(random_triplets(16, 12, 0.3, rng), paths[1])
    return paths


@pytest.mark.parametrize("command", ["spmm", "sim"])
@pytest.mark.parametrize("mode", ["ssmm", "sdmm", "auto"])
@pytest.mark.parametrize("threshold", UNIT[0] + UNIT[1])
def test_sdmm_threshold_of_spmm_and_sim(operand_files, command, mode, threshold):
    a, b = operand_files
    rc, out, err = cli([command, "--a", a, "--b", b, f"--mode={mode}",
                        f"--sdmm-threshold={threshold}"])
    assert_staged(rc, out, err)
    if rc:
        assert err.startswith("error: parse:") and "--sdmm-threshold" in err


@seed(4101)
@settings(max_examples=300, deadline=None, database=None)
@given(flags(m=PLAN_SIZE, k=PLAN_SIZE, n=PLAN_SIZE, da=UNIT, db=UNIT),
       st.sampled_from(["ssmm", "sdmm"]))
def test_plan_flags(draw, mode):
    _, argv = draw
    rc, out, err = cli(["plan", *argv, f"--mode={mode}"])
    assert_staged(rc, out, err)
    if rc == 0:
        assert out.startswith("t_m=")


@seed(4102)
@settings(max_examples=120, deadline=None, database=None)
@given(flags(m=SIZE, k=SIZE, n=SIZE, da=UNIT, db=UNIT, seed=SEED,
             sdmm_threshold=UNIT, grids=GRIDS, buffer_scales=SCALES),
       st.sampled_from(["ssmm", "sdmm", "auto"]))
def test_sweep_flags(draw, mode):
    broken, argv = draw
    rc, out, err = cli(["sweep", *argv, f"--mode={mode}"])
    assert_staged(rc, out, err)
    assert rc == 0 or broken
    for row in out.splitlines()[1:]:  # a failed cell names its stage
        status = row.rsplit(",", 1)[1]
        assert status == "ok" or STAGED.match(status), row


@seed(4103)
@settings(max_examples=80, deadline=None, database=None)
@given(flags(nodes=SIZE, features=SIZE, hidden=SIZE, classes=SIZE, da=UNIT,
             dx=UNIT, seed=SEED))
def test_gcn_synthetic_flags(draw):
    broken, argv = draw
    rc, out, err = cli(["gcn", "--synthetic", *argv])
    assert_staged(rc, out, err)
    assert rc == 0 or broken
