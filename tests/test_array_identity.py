"""Objects that hold arrays compare and hash by identity.

A generated dataclass ``__eq__`` compares array fields with ``==``, which
raises on arrays of more than one element; these types opt out of it, so
``==`` is identity and ``hash`` works.
"""

import numpy as np
import pytest

from iohp.encoding import encode_cp_csr, encode_rp_csc, make_geometry
from iohp.engine import compute_psums, sdmm_compute
from iohp.matrices import DenseMatrix, TripletMatrix, to_csc, to_csr
from iohp.planner import HardwareConfig, PartitionPlan


def instances():
    """Two independently built, equal-valued instances of every type."""
    t = TripletMatrix(4, 4, [(0, 0, 5.0), (1, 2, 7.0), (2, 1, 3.0),
                             (3, 3, 1.0)])
    geom = make_geometry(PartitionPlan(1, 1, 1, 2, 4, 2, "RABE", 0),
                         (4, 4, 4), (2, 2))
    a, b = to_csc(t), to_csr(t)
    a_blk, b_blk = encode_rp_csc(a, geom, 0, 0), encode_cp_csr(b, geom, 0, 0)
    dense = DenseMatrix(4, 4, np.arange(16.0).reshape(4, 4))
    grid = compute_psums(a_blk, b_blk, HardwareConfig(c_psum=1, g_na=2, g_nb=2))
    return {
        "CscMatrix": a, "CsrMatrix": b, "DenseMatrix": dense,
        "RpCscBlock": a_blk, "CpCsrBlock": b_blk, "PsumGrid": grid,
        "OutputBlock": grid.spilled, "PsumStore": grid.stores[0][0],
        "DensePsumGrid": sdmm_compute(a_blk, dense, geom, 0),
    }


@pytest.mark.parametrize("name", sorted(instances()))
def test_compares_by_identity(name):
    one, two = instances()[name], instances()[name]
    assert type(one).__name__ == name
    assert one == one and not one != one
    assert one != two  # equal values, distinct objects: never raises
    assert hash(one) == hash(one)
    assert len({one, two}) == 2
