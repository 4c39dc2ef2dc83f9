"""Hybrid-product SpMM dataflow: encoders, PE-grid engine, tiling planner,
and a deterministic cycle/DRAM cost model."""

from .costmodel import DramCounter, SimStats, StageTrace, Workload, run
from .encoding import (CpCsrBlock, RpCscBlock, TilingGeometry, encode_cp_csr,
                       encode_rp_csc, make_geometry)
from .engine import (OutputBlock, PsumGrid, assemble_output, compute_psums,
                     merge_output_blocks, sdmm_compute)
from .matrices import (CscMatrix, CsrMatrix, DenseMatrix, TripletMatrix,
                       load_matrix_market, to_csc, to_csr, to_dense,
                       to_triplets, write_matrix_market)
from .planner import (HardwareConfig, PartitionPlan, WorkloadSpec,
                      dram_access, plan_partition)

__version__ = "0.1.0"
