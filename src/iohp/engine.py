"""The hybrid-product dataflow engine.

A PE grid of ``g_na x g_nb`` stores runs one outer product per group pair:
the block's shared column/row index streams are merge-joined, and for every
matched inner index each active PE multiplies its A-group slice against its
B-group slice.  Products land in an append-only psum store whose per-row
address directory makes the later sort/accumulate pass regular.

Accumulation order is fixed by the traversal: products append in
(inner index, A entry, B entry) order, the per-row column sort is stable, and
runs of equal column index are summed left to right.  Distinct PEs share no
state, so results are identical under any PE scheduling.

Store overflow (a row segment exceeding ``s`` slots, or the store exceeding
``psum_capacity`` entries) either aborts (policy ``fail``) or flushes the
whole store early through address mapping, emitting a partial output block
that the cross-tile merge folds back in (policy ``spill``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import CpCsrBlock, RpCscBlock, TilingGeometry
from .errors import (DimensionError, GatherError, MalformedBlockError,
                     PsumOverflowError)
from .matrices import CscMatrix, DenseMatrix, TripletMatrix, to_csc
from .planner import HardwareConfig

OVERFLOW_FAIL = "fail"
OVERFLOW_SPILL = "spill"


@dataclass(frozen=True)
class EngineConfig:
    """Per-PE store limits.

    ``s`` is the slot count of each row's address segment (``None`` resolves
    to the tile width n_t); ``psum_capacity`` caps entries per store.
    """

    s: int | None = None
    psum_capacity: int = 256
    overflow_policy: str = OVERFLOW_SPILL

    def __post_init__(self):
        if self.s is not None and self.s < 1:
            raise ValueError("segment size s must be >= 1")
        if self.psum_capacity < 1:
            raise ValueError("psum_capacity must be >= 1")
        if self.overflow_policy not in (OVERFLOW_FAIL, OVERFLOW_SPILL):
            raise ValueError(f"unknown overflow policy {self.overflow_policy!r}")


@dataclass(frozen=True)
class OutputBlock:
    """Accumulated output triplets in block-local coordinates.

    Strictly increasing (row, col) pairs; one entry per coordinate.
    """

    row: np.ndarray
    col: np.ndarray
    value: np.ndarray

    @classmethod
    def empty(cls) -> "OutputBlock":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.float64))

    @property
    def nnz(self) -> int:
        return len(self.row)


class PsumStore:
    """Append-only psum arrays plus the row-segmented address directory.

    ``vc_addr[r, :row_len[r]]`` holds, in insertion order, the addresses of
    row r's products inside value_psum/col_idx_psum.  ``id_psum`` is the next
    free address.  Spilled partial outputs accumulate in ``spilled``.
    """

    def __init__(self, m_t: int, s: int, capacity: int, policy: str,
                 tile: tuple = ()):
        self.m_t = m_t
        self.s = s
        self.capacity = capacity
        self.policy = policy
        self.tile = tile
        self._value_chunks: list[np.ndarray] = []
        self._col_chunks: list[np.ndarray] = []
        self.vc_addr = np.zeros((m_t, s), dtype=np.int64)
        self.row_len = np.zeros(m_t, dtype=np.int64)
        self.id_psum = 0
        self.appended_total = 0
        self.peak_id = 0
        self.spilled: list[OutputBlock] = []
        self.spill_events = 0

    @property
    def value_psum(self) -> np.ndarray:
        return _joined(self._value_chunks, np.float64)

    @property
    def col_idx_psum(self) -> np.ndarray:
        return _joined(self._col_chunks, np.int64)

    def append_products(self, rows_a: np.ndarray, vals_a: np.ndarray,
                        cols_b: np.ndarray, vals_b: np.ndarray) -> None:
        """Append the len(a) x len(b) outer-product batch of one (g,h,k) step."""
        la, lb = len(vals_a), len(vals_b)
        if la == 0 or lb == 0:
            return
        self.appended_total += la * lb
        if (self.id_psum + la * lb <= self.capacity
                and int(self.row_len[rows_a].max()) + lb <= self.s):
            self._value_chunks.append(np.multiply.outer(vals_a, vals_b).ravel())
            self._col_chunks.append(np.tile(cols_b, la))
            slots = self.row_len[rows_a][:, None] + np.arange(lb)[None, :]
            addrs = self.id_psum + np.arange(la)[:, None] * lb + np.arange(lb)[None, :]
            self.vc_addr[rows_a[:, None], slots] = addrs
            self.row_len[rows_a] += lb
            self.id_psum += la * lb
        else:
            self._append_slow(rows_a, vals_a, cols_b, vals_b)
        self.peak_id = max(self.peak_id, self.id_psum)

    def _append_slow(self, rows_a, vals_a, cols_b, vals_b) -> None:
        lb = len(vals_b)
        for i in range(len(vals_a)):
            r = int(rows_a[i])
            va = vals_a[i]
            j = 0
            while j < lb:
                if self.id_psum >= self.capacity or self.row_len[r] >= self.s:
                    self._overflow()
                room = min(self.capacity - self.id_psum,
                           self.s - int(self.row_len[r]), lb - j)
                self._value_chunks.append(va * vals_b[j:j + room])
                self._col_chunks.append(np.asarray(cols_b[j:j + room]))
                self.vc_addr[r, self.row_len[r]:self.row_len[r] + room] = \
                    self.id_psum + np.arange(room)
                self.row_len[r] += room
                self.id_psum += room
                self.peak_id = max(self.peak_id, self.id_psum)
                j += room

    def _overflow(self) -> None:
        if self.policy == OVERFLOW_FAIL:
            raise PsumOverflowError(
                f"psum overflow at tile {self.tile}: id_psum={self.id_psum}, "
                f"capacity={self.capacity}, segment size={self.s}")
        flushed = address_map(self)
        if flushed.nnz:
            self.spilled.append(flushed)
        self.spill_events += 1
        self._value_chunks = []
        self._col_chunks = []
        self.vc_addr.fill(0)
        self.row_len.fill(0)
        self.id_psum = 0


def _joined(chunks: list[np.ndarray], dtype) -> np.ndarray:
    """The chunks as one array, concatenated in place so it happens once."""
    if not chunks:
        return np.empty(0, dtype=dtype)
    if len(chunks) > 1:
        chunks[:] = [np.concatenate(chunks)]
    return chunks[0]


@dataclass
class PsumGrid:
    """One PsumStore per PE of a block pair's grid."""

    stores: list[list[PsumStore]]
    g_na: int
    g_nb: int
    tile: tuple = ()

    def __iter__(self):
        for row in self.stores:
            yield from row

    @property
    def appended_products(self) -> int:
        return sum(st.appended_total for st in self)

    @property
    def spill_events(self) -> int:
        return sum(st.spill_events for st in self)


@dataclass
class DensePsumGrid:
    """Dense accumulator banks (m_t x n_t per PE) for the sparse-dense path."""

    banks: np.ndarray  # (g_na, g_nb, m_t, n_t)
    macs: int
    width: int


def merge_join(a_blk: RpCscBlock,
               b_blk: CpCsrBlock) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the inner indices both blocks hold, in ascending k.

    Returns ``(ia, ib)``: ``a_blk.col_idx[ia] == b_blk.row_idx[ib]``.  Every
    other shared position is consumed without products.
    """
    _, ia, ib = np.intersect1d(a_blk.col_idx[:a_blk.col_all_len],
                               b_blk.row_idx[:b_blk.row_all_len],
                               assume_unique=True, return_indices=True)
    return ia, ib


def compute_psums(a_blk: RpCscBlock, b_blk: CpCsrBlock,
                  cfg: EngineConfig | None = None,
                  tile: tuple = ()) -> PsumGrid:
    """Merge-join the block pair's shared index streams and fill the grid.

    At every inner index both blocks hold, in ascending order, each (g,h)
    with both bitmap bits set appends the full outer product of its slices.
    """
    if a_blk.block_k != b_blk.block_k:
        raise DimensionError(
            f"inner block mismatch: A k-block {a_blk.block_k}, "
            f"B k-block {b_blk.block_k}")
    cfg = cfg or EngineConfig()
    s = cfg.s if cfg.s is not None else max(1, b_blk.n_t)
    stores = [[PsumStore(a_blk.m_t, s, cfg.psum_capacity, cfg.overflow_policy,
                         tile=tile)
               for _ in range(b_blk.g_nb)] for _ in range(a_blk.g_na)]
    a_slices, _ = a_blk.group_walk
    b_slices, _ = b_blk.group_walk
    for i, j in zip(*(pos.tolist() for pos in merge_join(a_blk, b_blk))):
        for g, rows_a, vals_a in a_slices[i]:
            for h, cols_b, vals_b in b_slices[j]:
                stores[g][h].append_products(rows_a, vals_a, cols_b, vals_b)
    return PsumGrid(stores=stores, g_na=a_blk.g_na, g_nb=b_blk.g_nb, tile=tile)


def validate_psum_store(ps: PsumStore) -> None:
    """Check the store's directory invariants; raise MalformedBlockError."""
    if ps.id_psum != len(ps.value_psum) or ps.id_psum != len(ps.col_idx_psum):
        raise MalformedBlockError("id_psum disagrees with stream lengths")
    if int(ps.row_len.sum()) != ps.id_psum:
        raise MalformedBlockError("row_len sum != id_psum")
    seen = []
    for r in range(ps.m_t):
        seg = ps.vc_addr[r, :ps.row_len[r]]
        if len(seg) and (seg.min() < 0 or seg.max() >= ps.id_psum):
            raise MalformedBlockError(f"row {r}: address out of range")
        seen.append(seg)
    if ps.id_psum:
        all_addrs = np.concatenate(seen)
        if len(np.unique(all_addrs)) != ps.id_psum:
            raise MalformedBlockError("addresses not a permutation of 0..id_psum-1")


def address_map(ps: PsumStore, cfg: EngineConfig | None = None) -> OutputBlock:
    """Sort and accumulate one store's psums into output triplets.

    Per non-empty row: fetch the column indices through the address segment,
    stable-sort them ascending (ties keep insertion order), fetch values
    through the sorted addresses, and sum runs of equal column index.
    """
    del cfg  # store carries its own limits
    value = ps.value_psum
    col = ps.col_idx_psum
    rows_out, cols_out, vals_out = [], [], []
    for r in range(ps.m_t):
        ln = int(ps.row_len[r])
        if ln == 0:
            continue
        addrs = ps.vc_addr[r, :ln]
        cols = col[addrs]
        order = np.argsort(cols, kind="stable")
        scols = cols[order]
        svals = value[addrs[order]]
        starts = np.flatnonzero(np.concatenate(([True], scols[1:] != scols[:-1])))
        rows_out.append(np.full(len(starts), r, dtype=np.int64))
        cols_out.append(scols[starts])
        vals_out.append(np.add.reduceat(svals, starts))
    if not rows_out:
        return OutputBlock.empty()
    return OutputBlock(np.concatenate(rows_out), np.concatenate(cols_out),
                       np.concatenate(vals_out))


def merge_output_blocks(parts: list[OutputBlock]) -> OutputBlock:
    """Sorted merge summing coincident coordinates.

    Coordinate sums use exact (correctly rounded) summation, so the result is
    identical under any permutation or regrouping of the inputs.
    """
    parts = [p for p in parts if p.nnz]
    if not parts:
        return OutputBlock.empty()
    if len(parts) == 1:
        return parts[0]
    rows = np.concatenate([p.row for p in parts])
    cols = np.concatenate([p.col for p in parts])
    vals = np.concatenate([p.value for p in parts])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    change = np.concatenate(([True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])))
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], len(rows))
    out_vals = np.empty(len(starts))
    for i, (s, e) in enumerate(zip(starts, ends)):
        out_vals[i] = vals[s] if e - s == 1 else math.fsum(vals[s:e])
    return OutputBlock(rows[starts], cols[starts], out_vals)


def assemble_output(parts: dict[tuple[int, int, int, int], OutputBlock],
                    geom: TilingGeometry) -> CscMatrix:
    """Offset per-(block,group) outputs to global coordinates and build CSC."""
    rows_all, cols_all, vals_all = [], [], []
    for (m, g, n, h) in sorted(parts):
        blk = parts[(m, g, n, h)]
        if not blk.nnz:
            continue
        row_lo, row_hi = geom.row_span(m, g)
        col_lo, col_hi = geom.col_span(n, h)
        if (blk.row.max() >= row_hi - row_lo) or (blk.col.max() >= col_hi - col_lo):
            raise MalformedBlockError(
                f"output block ({m},{g},{n},{h}) exceeds its tile span")
        rows_all.append(blk.row + row_lo)
        cols_all.append(blk.col + col_lo)
        vals_all.append(blk.value)
    if not rows_all:
        return CscMatrix(geom.m, geom.n, np.empty(0), np.empty(0, dtype=np.int64),
                         np.zeros(geom.n + 1, dtype=np.int64))
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    vals = np.concatenate(vals_all)
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    if np.any(dup):
        raise AssertionError("coordinate collision across disjoint blocks")
    counts = np.bincount(cols, minlength=geom.n)
    col_ptr = np.zeros(geom.n + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return CscMatrix(geom.m, geom.n, vals, rows, col_ptr)


def gather_dense_rows(b: DenseMatrix, a_blk: RpCscBlock, geom: TilingGeometry,
                      block_col: int) -> DenseMatrix:
    """Fetch the dense B rows named by the block's non-empty columns.

    Returns one row per entry of the block's shared column stream, restricted
    to the output block's column span.
    """
    k_lo, _ = geom.k_span(a_blk.block_k)
    c_lo, c_hi = geom.block_cols(block_col)
    rows = k_lo + a_blk.col_idx
    if len(rows) and int(rows.max()) >= b.n_rows:
        raise GatherError(
            f"dense operand has {b.n_rows} rows; column index {int(rows.max())} "
            "has no matching row")
    data = b.data[rows][:, c_lo:c_hi] if len(rows) else np.zeros((0, c_hi - c_lo))
    return DenseMatrix(len(rows), c_hi - c_lo, data)


def sdmm_compute(a_blk: RpCscBlock, b_rows: DenseMatrix,
                 geom: TilingGeometry) -> DensePsumGrid:
    """Dense-bank accumulation of one A block against gathered dense rows.

    For each non-empty A column (in traversal order) and each member group g,
    every PE row adds the outer product of the group's slice against its
    group's slice of the dense row.  The MAC counter only counts products
    whose dense operand is nonzero, matching the nonzero-product optimum.
    """
    if b_rows.n_rows != a_blk.col_all_len:
        raise GatherError(
            f"need {a_blk.col_all_len} gathered rows, got {b_rows.n_rows}")
    banks = np.zeros((a_blk.g_na, geom.g_nb, a_blk.m_t, geom.n_t))
    macs = 0
    width = b_rows.n_cols
    for p, members in enumerate(a_blk.group_walk[0]):
        brow = b_rows.data[p]
        nnz_brow = int(np.count_nonzero(brow))
        for g, rows_a, vals_a in members:
            macs += len(vals_a) * nnz_brow
            for h in range(geom.g_nb):
                w_lo = h * geom.n_t
                if w_lo >= width:
                    break
                w_hi = min(w_lo + geom.n_t, width)
                banks[g, h][rows_a, :w_hi - w_lo] += np.outer(vals_a, brow[w_lo:w_hi])
    return DensePsumGrid(banks=banks, macs=macs, width=width)


def dump_psum_store(ps: PsumStore) -> str:
    """Structured text dump of a store for golden tests."""
    lines = [
        "kind=psum_store",
        f"id_psum={ps.id_psum}",
        "value_psum=" + ",".join(repr(float(v)) for v in ps.value_psum),
        "col_idx_psum=" + ",".join(str(int(c)) for c in ps.col_idx_psum),
        "row_len_psum=" + ",".join(str(int(x)) for x in ps.row_len),
    ]
    for r in range(ps.m_t):
        seg = ps.vc_addr[r, :ps.row_len[r]]
        lines.append(f"vc_addr[{r}]=" + ",".join(str(int(x)) for x in seg))
    return "\n".join(lines) + "\n"


MODE_SSMM = "ssmm"
MODE_SDMM = "sdmm"


def spmm(a, b, mode: str, plan, cfg: EngineConfig | None = None,
         groups: tuple[int, int] = (8, 8)):
    """Run the full tiled dataflow (``costmodel.run``) and return its result.

    ``a`` is the sparse (CSC) operand.  SSMM takes sparse ``b`` and returns a
    CscMatrix; SDMM takes dense ``b`` and returns a DenseMatrix.  The grid is
    ``groups`` and each store holds ``cfg.psum_capacity`` psums.
    """
    from .costmodel import Workload, run  # costmodel imports this module
    if isinstance(a, TripletMatrix):
        a = to_csc(a)
    cfg = cfg or EngineConfig()
    hw = HardwareConfig(c_psum=cfg.psum_capacity, g_na=groups[0],
                        g_nb=groups[1])
    return run(Workload(a, b), plan, hw, mode, cfg)[0]
