"""A small product pays only for its C calls.

The per-pass path calls ndarray methods and ufuncs, not numpy's
Python-level wrappers (``np.diff``, ``np.flatnonzero``, ``np.all``,
``np.cumsum``, ``ndarray.max`` and the like), each of which costs a Python
frame or more on top of the C call it makes.  ``sys.setprofile`` counts the
``call`` events into functions defined in numpy's ``.py`` files whose caller
frame is iohp code, over one ``costmodel.run`` of each of two seeded
products: a one-pass product of the batch's size, and a spilling four-pass
one (``c_psum=4, s=2``).  What is left is the module-level sorts, which
``test_fill_cut.counted_sorts`` counts by patching their names, the
``np.errstate`` blocks, and the Python dispatchers of C functions such as
``np.bincount`` and ``np.concatenate``.

Before the hot path kept to that rule the counts were 103 and 492.  The
budget belongs to the installed numpy (2.4.6): another release can move a
function between Python and C, and then the counts are measured again.
"""

import os
import sys

import numpy as np
import pytest

import iohp
from iohp.costmodel import Workload, run
from iohp.matrices import to_csc, to_csr
from iohp.planner import HardwareConfig, plan_partition
from iohp.synthetic import random_triplets

NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
IOHP_DIR = os.path.dirname(iohp.__file__) + os.sep


def numpy_calls_from_iohp(call) -> int:
    """``call()``'s calls from iohp code into functions in numpy's .py files."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        caller = frame.f_back
        if (event == "call" and frame.f_code.co_filename.startswith(NUMPY_DIR)
                and frame.f_code.co_filename.endswith(".py") and caller
                and caller.f_code.co_filename.startswith(IOHP_DIR)):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize("cfg, shape, passes, budget", [
    (HardwareConfig(), (60, 60, 60, 0.02), 1, 13),
    (HardwareConfig(c_psum=4, s=2), (48, 40, 48, 0.08), 4, 95),
], ids=["one_pass", "spilling"])
def test_numpy_wrapper_calls_within_budget(cfg, shape, passes, budget):
    m, k, n, density = shape
    rng = np.random.default_rng(36)
    wl = Workload(to_csc(random_triplets(m, k, density, rng)),
                  to_csr(random_triplets(k, n, density, rng)))
    plan = plan_partition(cfg, wl.spec(cfg))
    _, stats = run(wl, plan, cfg, "ssmm")  # once first: numpy's lazy set-up
    assert len(stats.traces) == passes
    assert bool(stats.spill_events) == (passes > 1)
    assert numpy_calls_from_iohp(lambda: run(wl, plan, cfg, "ssmm")) <= budget
