"""The tiled driver and its deterministic cycle and DRAM accounting.

``run`` drives a product in either mode over one ``HardwareConfig``: it hands
each tile pass's block pair to the engine, shifts the pass's held and spilled
blocks from block-pair to global coordinates, and merges the run's once.

The three stages (encode, psum compute, address map) run as a pipeline over
tile passes: total cycles are the sum over passes of the slowest stage, plus
the first pass's encode and the last pass's address map as fill/drain.  A
pass encodes the entries it loads; the grid the engine returns prices the rest.

Each pass appends one ``StageTrace``, and every ``SimStats`` total but the C
write is a reduction over them.  A pass that loads a block reads its entry
stream; the first pass of each traversal over a k span (A at row strip 0, B at
column strip 0) also reads the span's pointer stream, so the input reads
(spills aside) are the reuse strategy's predicted cost exactly.  Sparse loads
and SSMM's C write cost ``sparse_bits``; spills use the reduced index width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import (TilingGeometry, encode_cp_csr, encode_rp_csc,
                       make_geometry)
from .errors import DimensionError
from .engine import (OutputBlock, assemble_output, compute_psums,
                     merge_output_blocks, sdmm_compute)
from .matrices import CscMatrix, CsrMatrix, DenseMatrix
from .planner import (HardwareConfig, PartitionPlan, WorkloadSpec,
                      STRATEGY_RAF, STRATEGY_RBF, sparse_bits)

MODE_SSMM = "ssmm"
MODE_SDMM = "sdmm"

# Index width of the group-partitioned on-chip streams (value keeps full width).
REDUCED_BITS_INDEX = 16


@dataclass(frozen=True)
class StageTrace:
    """One tile pass: stage cycles, spills, MACs, DRAM bits, unclamped fills."""

    encode_cycles: int
    compute_cycles: int
    addrmap_cycles: int
    spill_events: int
    macs: int
    bits_a: int
    bits_b: int
    bits_spill: int
    fill_a: float
    fill_b: float
    fill_psum: float

    @property
    def bottleneck(self) -> int:
        return max(self.encode_cycles, self.compute_cycles, self.addrmap_cycles)


@dataclass
class DramCounter:
    """DRAM traffic in bits, for exact identities; reports show ``_bytes``."""

    bits_a_read: int = 0
    bits_b_read: int = 0
    bits_psum_spill: int = 0
    bits_c_write: int = 0

    @property
    def bits_input_read(self) -> int:
        return self.bits_a_read + self.bits_b_read


CSV_COLUMNS = ("workload", "mode", "strategy", "T_M", "T_K", "T_N",
               "total_cycles", "bytes_A", "bytes_B", "bytes_spill", "bytes_C",
               "util_A", "util_B", "util_psum", "macs")


@dataclass
class SimStats:
    """Aggregate simulation report for one workload run."""

    mode: str
    strategy: str
    t_m: int
    t_k: int
    t_n: int
    total_cycles: int
    encode_cycles: int
    compute_cycles: int
    addrmap_cycles: int
    dram: DramCounter
    buffer_utilization_a: float
    buffer_utilization_b: float
    buffer_utilization_psum: float
    achieved_macs: int
    peak_macs_per_cycle: int
    peak_macs_per_sec: float
    spill_events: int
    predicted_dram_bits: int
    traces: list[StageTrace] = field(default_factory=list)

    def csv_row(self, workload: str) -> str:
        fields = dict(self._fields(workload))
        return ",".join(str(fields[c]) for c in CSV_COLUMNS)

    def to_text(self, workload: str = "workload") -> str:
        return "".join(f"{k}={v}\n" for k, v in self._fields(workload))

    def _fields(self, workload: str) -> list[tuple[str, object]]:
        """Every report field, formatted, in text-report order."""
        return [
            ("workload", workload), ("mode", self.mode),
            ("strategy", self.strategy), ("T_M", self.t_m),
            ("T_K", self.t_k), ("T_N", self.t_n),
            ("total_cycles", self.total_cycles),
            ("encode_cycles", self.encode_cycles),
            ("compute_cycles", self.compute_cycles),
            ("addrmap_cycles", self.addrmap_cycles),
            ("bytes_A", _bytes(self.dram.bits_a_read)),
            ("bytes_B", _bytes(self.dram.bits_b_read)),
            ("bytes_spill", _bytes(self.dram.bits_psum_spill)),
            ("bytes_C", _bytes(self.dram.bits_c_write)),
            ("util_A", f"{self.buffer_utilization_a:.6g}"),
            ("util_B", f"{self.buffer_utilization_b:.6g}"),
            ("util_psum", f"{self.buffer_utilization_psum:.6g}"),
            ("macs", self.achieved_macs),
            ("peak_macs_per_cycle", self.peak_macs_per_cycle),
            ("peak_macs_per_sec", f"{self.peak_macs_per_sec:.6g}"),
            ("spill_events", self.spill_events),
            ("predicted_dram_bits", self.predicted_dram_bits),
            ("actual_input_bits", self.dram.bits_input_read),
        ]


def _bytes(bits: int):
    """Whole bytes as an int, else the exact fraction."""
    return bits // 8 if bits % 8 == 0 else bits / 8


@dataclass
class Workload:
    """A concrete operand pair to run and account."""

    a: CscMatrix
    b: CsrMatrix | DenseMatrix
    label: str = "workload"

    def spec(self, cfg: HardwareConfig) -> WorkloadSpec:
        b_dense = isinstance(self.b, DenseMatrix)
        return WorkloadSpec.from_counts(self.a.n_rows, self.a.n_cols,
                                        self.b.n_cols, self.a.nnz,
                                        0 if b_dense else self.b.nnz, cfg,
                                        b_dense=b_dense)


def _passes(strategy: str, geom: TilingGeometry):
    """Yield (m, n, k, a_loaded, b_loaded) in the strategy's loop order."""
    if strategy == STRATEGY_RBF:
        for n in range(geom.t_n):
            for m in range(geom.t_m):
                for k in range(geom.t_k):
                    yield m, n, k, True, m == 0
    else:
        reuse_a = strategy == STRATEGY_RAF
        for m in range(geom.t_m):
            for n in range(geom.t_n):
                for k in range(geom.t_k):
                    yield m, n, k, n == 0 or not reuse_a, True


def run(workload: Workload, plan: PartitionPlan, cfg: HardwareConfig, mode: str):
    """Execute the tiled pipeline, returning (result matrix, SimStats).

    A is CSC; B is CSR under SSMM (CSC result) or dense under SDMM.  Every
    block a pass reads is encoded once, before the pass loop.
    """
    a, b = workload.a, workload.b
    operands = {MODE_SSMM: (CsrMatrix, "sparse"), MODE_SDMM: (DenseMatrix, "dense")}
    if mode not in operands:
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(b, operands[mode][0]):
        raise DimensionError(f"{mode} needs a {operands[mode][1]} right operand")
    if a.n_cols != b.n_rows:
        raise DimensionError(
            f"dimension mismatch: {a.n_rows}x{a.n_cols} @ {b.n_rows}x{b.n_cols}")
    geom = make_geometry(plan, (a.n_rows, a.n_cols, b.n_cols),
                         (cfg.g_na, cfg.g_nb))

    traces: list[StageTrace] = []
    outputs: list[OutputBlock] = []  # every pass's outputs, global coordinates
    a_blocks = {(m, k): encode_rp_csc(a, geom, m, k)
                for m in range(geom.t_m) for k in range(geom.t_k)}
    if mode == MODE_SSMM:
        b_blocks = {(k, n): encode_cp_csr(b, geom, k, n)
                    for k in range(geom.t_k) for n in range(geom.t_n)}
    else:
        dense_result = np.zeros((geom.m, geom.n))
        strip_fill = geom.m_t * geom.n_t / cfg.sdmm_variant().c_psum

    for m, n, k, a_loaded, b_loaded in _passes(plan.strategy, geom):
        a_blk = a_blocks[m, k]
        (r_lo, r_hi), (c_lo, c_hi) = geom.block_rows(m), geom.block_cols(n)
        k_lo, k_hi = geom.k_span(k)
        encode = a_loaded * a_blk.nnz
        bits_a = a_loaded * sparse_bits(a_blk.nnz, (m == 0) * (k_hi - k_lo), cfg)

        if mode == MODE_SSMM:
            b_blk = b_blocks[k, n]
            encode += b_loaded * b_blk.nnz
            bits_b = b_loaded * sparse_bits(b_blk.nnz, (n == 0) * (k_hi - k_lo), cfg)
            grid = compute_psums(a_blk, b_blk, cfg)
            macs, fill_b = grid.appended_products, b_blk.nnz / cfg.c_b
            fill_psum = int(np.maximum.reduce(grid.peak)) / grid.capacity
            bits_spill = grid.spilled.nnz * (cfg.bits_value + REDUCED_BITS_INDEX)
            outputs += [blk.shifted(r_lo, c_lo) for blk in (grid.spilled, grid.held)
                        if blk.nnz]
        else:
            bits_b = b_loaded * (k_hi - k_lo) * (c_hi - c_lo) * cfg.bits_value
            fill_b = a_blk.col_all_len * (c_hi - c_lo) / cfg.c_b
            grid = sdmm_compute(a_blk, b, geom, n)
            macs, fill_psum, bits_spill = grid.macs, strip_fill, 0
            with np.errstate(over="ignore", invalid="ignore"):
                dense_result[r_lo:r_hi, c_lo:c_hi] += grid.strip[:r_hi - r_lo]
        traces.append(StageTrace(encode, grid.compute_cycles, grid.addrmap_cycles,
                                 grid.spill_events, macs, bits_a, bits_b,
                                 bits_spill, a_blk.nnz / cfg.c_a, fill_b, fill_psum))

    if mode == MODE_SSMM:
        result = assemble_output(merge_output_blocks(outputs), geom)
        bits_c = sparse_bits(result.nnz, geom.n, cfg)
    else:
        result = DenseMatrix(geom.m, geom.n, dense_result)
        bits_c = geom.m * geom.n * cfg.bits_value

    def total(name: str):
        return sum(getattr(t, name) for t in traces)

    # util_* is the mean over passes of min(1, fill), summed and divided as
    # np.mean does
    fills = [[getattr(t, f"fill_{x}") for t in traces] for x in ("a", "b", "psum")]
    util_a, util_b, util_psum = (np.add.reduce(np.minimum(1.0, fills), axis=1)
                                 / len(traces)).tolist()
    stats = SimStats(
        mode=mode, strategy=plan.strategy,
        t_m=geom.t_m, t_k=geom.t_k, t_n=geom.t_n,
        total_cycles=(sum(t.bottleneck for t in traces)
                      + traces[0].encode_cycles + traces[-1].addrmap_cycles),
        encode_cycles=total("encode_cycles"),
        compute_cycles=total("compute_cycles"),
        addrmap_cycles=total("addrmap_cycles"),
        dram=DramCounter(bits_a_read=total("bits_a"), bits_b_read=total("bits_b"),
                         bits_psum_spill=total("bits_spill"), bits_c_write=bits_c),
        buffer_utilization_a=util_a,
        buffer_utilization_b=util_b,
        buffer_utilization_psum=util_psum,
        achieved_macs=total("macs"),
        peak_macs_per_cycle=cfg.g_na * cfg.g_nb,
        peak_macs_per_sec=cfg.g_na * cfg.g_nb * cfg.freq_hz,
        spill_events=total("spill_events"),
        predicted_dram_bits=plan.predicted_dram,
        traces=traces,
    )
    return result, stats

