"""The paper's psum claim against an outer-product reference.

An outer-product design (OuterSPACE's multiply-then-merge) reads A and B
once, writes every product to DRAM once and reads it back once to merge,
and writes C.  ``outer_product_bits`` counts that traffic in the model's
units; a spilled psum moves at the spill width, ``bits_value +
REDUCED_BITS_INDEX``.  The ratios against it are recorded in ROADMAP item
15 and bounded nowhere yet: today's plans spill more than they need to.
The one identity that holds on every plan is that a pass spills at most the
products it forms.
"""

import numpy as np
import pytest

from iohp.cli import _run_one
from iohp.costmodel import REDUCED_BITS_INDEX, Workload
from iohp.matrices import CscMatrix, CsrMatrix, to_csc, to_csr
from iohp.planner import HardwareConfig
from iohp.synthetic import random_triplets


def outer_product_bits(a: CscMatrix, b: CsrMatrix, cfg: HardwareConfig) -> int:
    """DRAM bits of the outer-product reference: A (CSC) and B (CSR) read
    once in full, each product written and read back once at the spill
    width, and C written as the model writes it (CSC, one entry per
    coordinate that receives a product)."""
    entry_bits = cfg.bits_value + cfg.bits_index
    inputs = ((a.nnz + b.nnz) * entry_bits
              + (a.n_cols + b.n_rows) * cfg.bits_len)
    a_cols = np.repeat(np.arange(a.n_cols), np.diff(a.col_ptr))
    starts, lengths = b.row_ptr[a_cols], np.diff(b.row_ptr)[a_cols]
    macs = int(lengths.sum())
    out_rows = np.repeat(a.row_idx, lengths)
    b_pos = (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
             + np.arange(macs))
    c_nnz = len(np.unique(out_rows * b.n_cols + b.col_idx[b_pos]))
    c_bits = c_nnz * entry_bits + b.n_cols * cfg.bits_len
    return inputs + 2 * macs * (cfg.bits_value + REDUCED_BITS_INDEX) + c_bits


# ROADMAP item 15's shapes: m, k, n, d_a, d_b
SHAPES = [(600, 600, 64, 0.01, 0.05), (600, 600, 64, 0.01, 0.2),
          (600, 600, 64, 0.01, 0.5), (600, 600, 600, 0.005, 0.5),
          (2000, 2000, 2000, 0.002, 0.002)]


def measure(shape):
    """One planned SSMM run at seed 1 under the default config: its stats,
    and (spilled / MACs, iohp DRAM / outer-product DRAM), iohp's spills
    written and read back."""
    m, k, n, d_a, d_b = shape
    cfg = HardwareConfig()
    rng = np.random.default_rng(1)
    a = to_csc(random_triplets(m, k, d_a, rng))
    b = to_csr(random_triplets(k, n, d_b, rng))
    _, stats, _ = _run_one(Workload(a, b), "ssmm", cfg)
    width = cfg.bits_value + REDUCED_BITS_INDEX
    d = stats.dram
    iohp = d.bits_a_read + d.bits_b_read + 2 * d.bits_psum_spill + d.bits_c_write
    return stats, (d.bits_psum_spill / width / stats.achieved_macs,
                   iohp / outer_product_bits(a, b, cfg))


@pytest.mark.parametrize("shape", SHAPES)
def test_a_pass_spills_at_most_its_products(shape):
    stats, _ = measure(shape)
    width = HardwareConfig().bits_value + REDUCED_BITS_INDEX
    for trace in stats.traces:
        assert trace.bits_spill % width == 0
        assert trace.bits_spill // width <= trace.macs


if __name__ == "__main__":  # print each shape's two ratios
    for shape in SHAPES:
        _, (spilled, dram) = measure(shape)
        print(shape, f"spilled/MACs {spilled:.3f}", f"iohp/outer {dram:.2f}")
