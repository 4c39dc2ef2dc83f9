"""Hybrid-product SpMM dataflow: encoders, PE-grid engine, tiling planner,
and a deterministic cycle/DRAM cost model."""

from .costmodel import (BaselineCounters, DramCounter, SimStats, StageTrace,
                        Workload, baseline_counters, run, simulate)
from .encoding import (CpCsrBlock, RpCscBlock, TilingGeometry, decode_block,
                       encode_cp_csr, encode_rp_csc, make_geometry)
from .engine import (OutputBlock, PsumGrid, PsumStore, address_map,
                     assemble_output, compute_psums, merge_output_blocks,
                     sdmm_compute)
from .matrices import (CscMatrix, CsrMatrix, DenseMatrix, TripletMatrix,
                       dense_matmul, load_matrix_market, to_csc, to_csr,
                       to_dense, to_triplets, write_matrix_market)
from .planner import (HardwareConfig, PartitionPlan, WorkloadSpec,
                      dram_access, feasible, plan_partition, storage_size)

__version__ = "0.1.0"
