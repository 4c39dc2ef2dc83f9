"""The tiled driver and its deterministic cycle and DRAM accounting.

``run`` drives a product in either mode over one ``HardwareConfig``: it hands
each tile pass's block pair to the engine, shifts the pass's held and spilled
blocks from block-pair to global coordinates, and merges the run's once.

The three stages (encode, psum compute, address map) run as a pipeline over
tile passes: total cycles are the sum over passes of the slowest stage, plus
the first pass's encode and the last pass's address map as fill/drain.

Address mapping costs one setup cycle per non-empty row plus two cycles per
stored psum (index insert during sorting, value fetch-accumulate), with
concurrent per-PE units.

DRAM reads follow the chosen reuse strategy's reload pattern: entry streams
are counted per tile-load event and pointer streams once per full pass over
a matrix, so with no spills the input-read total reproduces the strategy's
predicted cost exactly.  Encoded-stream spills use the reduced on-chip
widths; original-format loads use the configured full widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import (CpCsrBlock, RpCscBlock, TilingGeometry, encode_cp_csr,
                       encode_rp_csc, make_geometry)
from .errors import DimensionError
from .engine import (OutputBlock, PsumGrid, assemble_output, compute_psums,
                     gather_dense_rows, merge_output_blocks, sdmm_compute)
from .matrices import CscMatrix, CsrMatrix, DenseMatrix
from .planner import (HardwareConfig, PartitionPlan, WorkloadSpec,
                      STRATEGY_RAF, STRATEGY_RBF)

MODE_SSMM = "ssmm"
MODE_SDMM = "sdmm"

# Widths of the group-partitioned on-chip streams (value keeps full width).
REDUCED_BITS_INDEX = 16
REDUCED_BITS_LEN = 8


@dataclass(frozen=True)
class StageTrace:
    """Per tile-pass stage costs."""

    encode_cycles: int
    compute_cycles: int
    addrmap_cycles: int
    spill_events: int

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


def sdmm_compute_cycles(a_blk: RpCscBlock, span: int, n_t: int) -> int:
    """Column-wise dense accumulation cost: busiest group times PE width."""
    return int(a_blk.busiest.sum()) * min(n_t, span) if span > 0 else 0


def addrmap_cycles(grid: PsumGrid) -> int:
    """Concurrent per-PE sort/accumulate: 2 cycles per psum + 1 per row."""
    lens = grid.row_len
    return int((2 * lens.sum(axis=1) + np.count_nonzero(lens, axis=1)).max())


@dataclass(frozen=True)
class BaselineCounters:
    """Dense-inner / private-outer reference counters for one product."""

    inner_macs: int
    inner_zero_macs: int
    outer_input_loads: int
    iohp_macs: int
    iohp_input_loads: int


def baseline_counters(a: CscMatrix, b, g_na: int = 8,
                      g_nb: int = 8) -> BaselineCounters:
    """Count MACs and element loads for the baseline dataflows.

    The nonzero-product optimum pairs each column of A with the matching row
    of B; grouped sharing loads every stream once per PE row/column, private
    outer product loads each operand per PE.
    """
    if isinstance(b, DenseMatrix):
        row_nnz = np.count_nonzero(b.data, axis=1).astype(np.int64)
    else:
        row_nnz = b.nnz_per_row()
    nnz_b = int(row_nnz.sum())
    if a.n_cols != len(row_nnz):
        raise DimensionError("inner dimensions disagree")
    col_nnz = a.nnz_per_column()
    iohp = int(col_nnz @ row_nnz)
    inner = a.n_rows * a.n_cols * b.n_cols
    return BaselineCounters(
        inner_macs=inner,
        inner_zero_macs=inner - iohp,
        outer_input_loads=g_nb * a.nnz + g_na * nnz_b,
        iohp_macs=iohp,
        iohp_input_loads=a.nnz + nnz_b,
    )


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

    A is CSC; B is CSR under SSMM (CSC result) or dense under SDMM.
    """
    a, b = workload.a, workload.b
    if mode == MODE_SSMM:
        if not isinstance(b, CsrMatrix):
            raise DimensionError("ssmm needs a sparse right operand")
    elif mode == MODE_SDMM:
        if not isinstance(b, DenseMatrix):
            raise DimensionError("sdmm needs a dense right operand")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if a.n_cols != b.n_rows:
        raise DimensionError(
            f"dimension mismatch: {a.n_rows}x{a.n_cols} @ {b.n_rows}x{b.n_cols}")
    geom = make_geometry(plan, (a.n_rows, a.n_cols, b.n_cols),
                         (cfg.g_na, cfg.g_nb))

    entry_bits = cfg.bits_value + cfg.bits_index
    bits_a = bits_b = bits_spill = 0
    util_a, util_b, util_psum = [], [], []
    traces: list[StageTrace] = []
    macs = spills = 0
    a_blocks: dict[tuple[int, int], RpCscBlock] = {}
    b_blocks: dict[tuple[int, int], CpCsrBlock] = {}
    outputs: list[OutputBlock] = []  # every pass's outputs, global coordinates
    dense_result = np.zeros((geom.m, geom.n)) if mode == MODE_SDMM else None
    psum_cap = cfg.c_psum if mode == MODE_SSMM else cfg.sdmm_variant().c_psum

    for m, n, k, a_loaded, b_loaded in _passes(plan.strategy, geom):
        a_blk = a_blocks.get((m, k))
        if a_blk is None:
            a_blk = a_blocks[(m, k)] = encode_rp_csc(a, geom, m, k)
        if a_loaded:
            bits_a += a_blk.nnz * entry_bits
        encode = a_blk.nnz if a_loaded else 0
        util_a.append(min(1.0, a_blk.nnz / cfg.c_a))

        if mode == MODE_SSMM:
            b_blk = b_blocks.get((k, n))
            if b_blk is None:
                b_blk = b_blocks[(k, n)] = encode_cp_csr(b, geom, k, n)
            if b_loaded:
                bits_b += b_blk.nnz * entry_bits
                encode += b_blk.nnz
            util_b.append(min(1.0, b_blk.nnz / cfg.c_b))
            grid = compute_psums(a_blk, b_blk, cfg, tile=(m, n, k))
            comp = grid.compute_cycles
            addr = addrmap_cycles(grid)
            pass_spills = grid.spill_events
            macs += grid.appended_products
            util_psum.append(min(1.0, int(grid.peak.max()) / psum_cap))
            bits_spill += grid.spilled.nnz * (cfg.bits_value + REDUCED_BITS_INDEX)
            r_lo, c_lo = geom.block_rows(m)[0], geom.block_cols(n)[0]
            outputs += [grid.spilled.shifted(r_lo, c_lo),
                        grid.held.shifted(r_lo, c_lo)]
        else:
            k_lo, k_hi = geom.k_span(k)
            c_lo, c_hi = geom.block_cols(n)
            if b_loaded:
                bits_b += (k_hi - k_lo) * (c_hi - c_lo) * cfg.bits_value
            b_rows = gather_dense_rows(b, a_blk, geom, n)
            util_b.append(min(1.0, b_rows.n_rows * b_rows.n_cols / cfg.c_b))
            dense_grid = sdmm_compute(a_blk, b_rows)
            comp = sdmm_compute_cycles(a_blk, c_hi - c_lo, geom.n_t)
            addr = 0
            pass_spills = 0
            macs += dense_grid.macs
            util_psum.append(min(1.0, geom.m_t * geom.n_t / psum_cap))
            r_lo, r_hi = geom.block_rows(m)
            dense_result[r_lo:r_hi, c_lo:c_hi] += dense_grid.strip[:r_hi - r_lo]
        spills += pass_spills
        traces.append(StageTrace(encode, comp, addr, pass_spills))

    # pointer streams are read once per full traversal of each matrix
    passes_a = 1 if plan.strategy == STRATEGY_RAF else geom.t_n
    passes_b = 1 if plan.strategy == STRATEGY_RBF else geom.t_m
    bits_a += passes_a * geom.k * cfg.bits_len
    if mode == MODE_SSMM:
        bits_b += passes_b * geom.k * cfg.bits_len
        result = assemble_output(merge_output_blocks(outputs), geom)
        bits_c = result.nnz * entry_bits + geom.n * cfg.bits_len
    else:
        result = DenseMatrix(geom.m, geom.n, dense_result)
        bits_c = geom.m * geom.n * cfg.bits_value

    total = sum(t.bottleneck for t in traces)
    if traces:
        total += traces[0].encode_cycles + traces[-1].addrmap_cycles
    stats = SimStats(
        mode=mode,
        strategy=plan.strategy,
        t_m=geom.t_m, t_k=geom.t_k, t_n=geom.t_n,
        total_cycles=total,
        encode_cycles=sum(t.encode_cycles for t in traces),
        compute_cycles=sum(t.compute_cycles for t in traces),
        addrmap_cycles=sum(t.addrmap_cycles for t in traces),
        dram=DramCounter(bits_a_read=bits_a, bits_b_read=bits_b,
                         bits_psum_spill=bits_spill, bits_c_write=bits_c),
        buffer_utilization_a=float(np.mean(util_a)) if util_a else 0.0,
        buffer_utilization_b=float(np.mean(util_b)) if util_b else 0.0,
        buffer_utilization_psum=float(np.mean(util_psum)) if util_psum else 0.0,
        achieved_macs=macs,
        peak_macs_per_cycle=cfg.g_na * cfg.g_nb,
        peak_macs_per_sec=cfg.g_na * cfg.g_nb * cfg.freq_hz,
        spill_events=spills,
        predicted_dram_bits=plan.predicted_dram,
        traces=traces,
    )
    return result, stats


def simulate(workload: Workload, plan: PartitionPlan, cfg: HardwareConfig,
             mode: str) -> SimStats:
    """Run the pipeline for its statistics only."""
    return run(workload, plan, cfg, mode)[1]
