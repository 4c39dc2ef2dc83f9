"""The benchmark's traced mode against the engine it reads.

``perfbench/run.py --trace 1`` wraps iohp functions by name and reads
engine attributes from their arguments and results (``PsumGrid`` iteration,
``col_idx``/``col_all_len``, ``row_idx``/``row_all_len``, ``.macs``).  A
change to those names would break the traced benchmark with every other
test passing, so one spilling SSMM product and one SDMM product run here
under its tracer.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import iohp.cli
import iohp.costmodel
import iohp.encoding
import iohp.engine
import iohp.matrices
import iohp.planner
from iohp.costmodel import Workload
from iohp.matrices import to_csc, to_csr
from iohp.planner import HardwareConfig, PartitionPlan
from iohp.synthetic import random_dense, random_triplets

MODULES = [iohp.cli, iohp.costmodel, iohp.engine, iohp.encoding,
           iohp.matrices, iohp.planner]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracer")


def product(mode):
    rng = np.random.default_rng(5)
    a = to_csc(random_triplets(12, 10, 0.4, rng))
    if mode == "ssmm":
        b = to_csr(random_triplets(10, 9, 0.4, rng))
        cfg = HardwareConfig(c_psum=4, s=2, g_na=2, g_nb=2)
    else:
        b, cfg = random_dense(10, 9, rng), HardwareConfig(g_na=2, g_nb=2)
    plan = PartitionPlan(1, 1, 1, 3, 4, 2, "RABE", 0)
    return Workload(a, b), plan, cfg


@pytest.mark.parametrize("mode, kernel", [("ssmm", "compute_psums"),
                                          ("sdmm", "sdmm_compute")])
def test_traced_run_counts_match_stats(tracer, mode, kernel):
    wl, plan, cfg = product(mode)
    t = tracer.Tracer(MODULES)
    _, stats = t.traced_op(0, lambda: iohp.costmodel.run(wl, plan, cfg, mode))
    assert {"op", "run", "encode_rp_csc", kernel} <= {sp[0] for sp in t.spans}
    table, wall = tracer.op_table(t.spans, 0)
    assert abs(sum(table.values()) - wall) <= 1e-9 * len(t.spans)
    counts = tracer.Counts()
    counts.add(t.spans, 0)
    assert counts.values["engine.products"] == stats.achieved_macs
    assert counts.values["engine.spill_events"] == stats.spill_events
    assert counts.values["costmodel.compute_cycles"] == stats.compute_cycles
    if mode == "ssmm":
        assert stats.spill_events > 0
        assert counts.join_steps > 0
