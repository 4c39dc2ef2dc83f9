"""The hybrid-product dataflow engine.

A PE grid of ``g_na x g_nb`` stores runs one outer product per group pair:
the block's shared column/row index streams are merge-joined, and for every
matched inner index each active PE multiplies its A-group slice against its
B-group slice.  Products land in an append-only psum store whose per-row
address directory makes the later sort/accumulate pass regular.

Accumulation order is fixed by the traversal: a block pair's products are
built at once and each store appends its own in (inner index, A entry,
B entry) order; the end-of-pass map is one stable (row, column) sort of
every store's held products, in address order, and each run of equal
coordinates is summed as its first value plus numpy's pairwise sum of the
rest (``np.add.reduceat``), wherever the run sits in the array.  The
sparse-dense path adds each A row's products into one dense strip in
ascending inner index.  Distinct PEs share no state, so results are
identical under any PE scheduling.

Store overflow (a product finding its row segment's ``s`` slots or the
store's ``c_psum`` entries full; both are ``HardwareConfig`` fields) either
aborts (policy ``fail``) or flushes the whole store through address mapping,
emitting a partial output block (policy ``spill``).  A store has one append
path: it appends the longest prefix that fits, then overflows, so it loops
once per overflow event, never once per product.  A pass emits its held
psums and its flushes as one block each, in block-pair coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoding import CpCsrBlock, RpCscBlock, TilingGeometry
from .errors import (DimensionError, GatherError, MalformedBlockError,
                     PsumOverflowError)
from .matrices import CscMatrix, DenseMatrix, coordinate_runs
from .planner import OVERFLOW_FAIL, HardwareConfig


@dataclass(frozen=True)
class OutputBlock:
    """Accumulated output triplets in block-local coordinates.

    Strictly increasing (row, col) pairs; one entry per coordinate, except in
    a grid's ``spilled`` block, which lists flushes side by side.
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

    def shifted(self, row: int, col: int) -> "OutputBlock":
        return OutputBlock(self.row + row, self.col + col, self.value)


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
        self.value_psum = np.empty(0, dtype=np.float64)
        self.col_idx_psum = np.empty(0, dtype=np.int64)
        self.vc_addr = np.zeros((m_t, s), dtype=np.int64)
        self.row_len = np.zeros(m_t, dtype=np.int64)
        self.id_psum = 0
        self.appended_total = 0
        self.peak_id = 0
        self.spilled: list[OutputBlock] = []
        self.spill_events = 0

    def append_products(self, rows_a: np.ndarray, vals_a: np.ndarray,
                        cols_b: np.ndarray, vals_b: np.ndarray) -> None:
        """Append the len(a) x len(b) outer-product batch of one (g,h,k) step."""
        self.append(np.repeat(rows_a, len(cols_b)), np.tile(cols_b, len(rows_a)),
                    np.multiply.outer(vals_a, vals_b).ravel())

    def append(self, rows: np.ndarray, cols: np.ndarray,
               vals: np.ndarray) -> None:
        """Append products in order, overflowing before each that does not fit.

        A product does not fit when the store is full or its row already
        holds ``s`` entries.  Each step appends the longest prefix that fits,
        so the loop runs once per overflow event, never once per product.
        """
        n = len(rows)
        self.appended_total += n
        # no prefix that fits is longer than the free entries or free slots
        room = min(self.capacity, self.m_t * self.s)
        lo = 0
        while lo < n:
            window = rows[lo:min(n, lo + room - self.id_psum)]
            # each product's slot: row_len plus its rank among equal rows
            order = np.argsort(window, kind="stable")
            first = np.flatnonzero(np.diff(window[order], prepend=-1))
            slot = self.row_len[window]
            slot[order] += np.arange(len(window)) - np.repeat(
                first, np.diff(first, append=len(window)))
            full = np.flatnonzero(slot >= self.s)
            stop = lo + (int(full[0]) if len(full) else len(window))
            self.vc_addr[rows[lo:stop], slot[:stop - lo]] = \
                self.id_psum + np.arange(stop - lo)
            self.row_len += np.bincount(rows[lo:stop], minlength=self.m_t)
            self.value_psum = np.concatenate((self.value_psum, vals[lo:stop]))
            self.col_idx_psum = np.concatenate((self.col_idx_psum, cols[lo:stop]))
            self.id_psum += stop - lo
            self.peak_id = max(self.peak_id, self.id_psum)
            if stop < n:
                self._overflow()
            lo = stop

    def _overflow(self) -> None:
        if self.policy == OVERFLOW_FAIL:
            raise PsumOverflowError(
                f"psum overflow at tile {self.tile}: id_psum={self.id_psum}, "
                f"capacity={self.capacity}, segment size={self.s}")
        flushed = address_map(self)
        if flushed.nnz:
            self.spilled.append(flushed)
        self.spill_events += 1
        self.value_psum = self.value_psum[:0]
        self.col_idx_psum = self.col_idx_psum[:0]
        self.row_len.fill(0)
        self.id_psum = 0


@dataclass
class PsumGrid:
    """One PsumStore per PE of a block pair's grid.  In block-pair coordinates
    (``g * m_t`` + row, ``h * n_t`` + column), ``held`` maps the psums the
    stores hold and ``spilled`` lists every store's flushes, PE-major."""

    stores: list[list[PsumStore]]
    g_na: int
    g_nb: int
    held: OutputBlock = field(default_factory=OutputBlock.empty)
    spilled: OutputBlock = field(default_factory=OutputBlock.empty)

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
    """Dense accumulators of one sparse-dense pass, one strip row per A row."""

    strip: np.ndarray  # (g_na * m_t, width); row g * m_t + r is group g's row r
    macs: int


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
                  cfg: HardwareConfig | None = None, tile: tuple = ()) -> PsumGrid:
    """Merge-join the block pair's shared index streams and fill the grid.

    At every inner index both blocks hold, in ascending order, each (g,h)
    with both bitmap bits set appends the full outer product of its slices.
    All products are built at once; each store appends its own in (k, A
    entry, B entry) order.  Under ``fail`` the overflow raised is the first
    in (k, g, h) order; else ``grid.held`` and ``grid.spilled`` are filled.
    Store limits come from ``cfg``, the grid's shape from the blocks.
    """
    if a_blk.block_k != b_blk.block_k:
        raise DimensionError(
            f"inner block mismatch: A k-block {a_blk.block_k}, "
            f"B k-block {b_blk.block_k}")
    cfg = cfg or HardwareConfig()
    s = cfg.s if cfg.s is not None else max(1, b_blk.n_t)
    grid = PsumGrid([[PsumStore(a_blk.m_t, s, cfg.c_psum,
                                cfg.overflow_policy, tile=tile)
                      for _ in range(b_blk.g_nb)] for _ in range(a_blk.g_na)],
                    a_blk.g_na, b_blk.g_nb)
    pos_a, group_a, rows_a, vals_a = a_blk.entry_table
    pos_b, group_b, cols_b, vals_b = b_blk.entry_table
    # the entries at a matched position are one run of each table
    ia, ib = merge_join(a_blk, b_blk)
    a_lo, b_lo = np.searchsorted(pos_a, ia), np.searchsorted(pos_b, ib)
    na = np.searchsorted(pos_a, ia, side="right") - a_lo
    nb = np.searchsorted(pos_b, ib, side="right") - b_lo
    count = na * nb
    pair = np.repeat(np.arange(len(count)), count)
    within = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    ea = a_lo[pair] + within // nb[pair]
    eb = b_lo[pair] + within % nb[pair]
    pe = group_a[ea] * b_blk.g_nb + group_b[eb]
    order = np.argsort(pe, kind="stable")  # PE-major, (k, a, b) within a PE
    pair, ea, eb, pe = pair[order], ea[order], eb[order], pe[order]
    rows, cols, vals = rows_a[ea], cols_b[eb], vals_a[ea] * vals_b[eb]
    bounds = np.searchsorted(pe, np.arange(a_blk.g_na * b_blk.g_nb + 1))
    n_held = np.empty(len(bounds) - 1, dtype=np.int64)  # each store's id_psum
    failed = []  # (matched position, store, error) of each overflow
    for i, (st, lo, hi) in enumerate(zip(grid, bounds[:-1], bounds[1:])):
        try:
            st.append(rows[lo:hi], cols[lo:hi], vals[lo:hi])
        except PsumOverflowError as err:  # before any flush, at product id_psum
            failed.append((int(pair[lo + st.id_psum]), i, err))
        n_held[i] = st.id_psum
    if failed:
        raise min(failed)[2]
    # a store holds the last id_psum products of its slice, in address order
    kept = np.arange(len(pe)) >= (bounds[1:] - n_held)[pe]
    pe = pe[kept]
    grid.held = _accumulate(*_at_pe(pe, rows[kept], cols[kept], a_blk, b_blk),
                            vals[kept])
    flushes = [(i, blk) for i, st in enumerate(grid) for blk in st.spilled]
    if flushes:
        pe = np.repeat([i for i, _ in flushes], [blk.nnz for _, blk in flushes])
        grid.spilled = OutputBlock(
            *_at_pe(pe, np.concatenate([blk.row for _, blk in flushes]),
                    np.concatenate([blk.col for _, blk in flushes]), a_blk, b_blk),
            np.concatenate([blk.value for _, blk in flushes]))
    return grid


def _at_pe(pe, rows, cols, a_blk: RpCscBlock, b_blk: CpCsrBlock):
    """Block-pair coordinates of PE ``pe = g * g_nb + h``'s local (row, col)."""
    return pe // b_blk.g_nb * a_blk.m_t + rows, pe % b_blk.g_nb * b_blk.n_t + cols


def _directory(ps: PsumStore) -> tuple[np.ndarray, np.ndarray]:
    """Every directory entry in use: its row and address, row-major.

    Each row's addresses keep insertion order.  Only the ``row_len`` slots in
    use are read, never the whole ``m_t x s`` directory.
    """
    rows = np.repeat(np.arange(ps.m_t, dtype=np.int64), ps.row_len)
    row_start = np.cumsum(ps.row_len) - ps.row_len
    slots = np.arange(len(rows), dtype=np.int64) - row_start[rows]
    return rows, ps.vc_addr[rows, slots]


def validate_psum_store(ps: PsumStore) -> None:
    """Check the store's directory invariants; raise MalformedBlockError."""
    if ps.id_psum != len(ps.value_psum) or ps.id_psum != len(ps.col_idx_psum):
        raise MalformedBlockError("id_psum disagrees with stream lengths")
    if int(ps.row_len.sum()) != ps.id_psum:
        raise MalformedBlockError("row_len sum != id_psum")
    if np.any(ps.row_len < 0) or np.any(ps.row_len > ps.s):
        raise MalformedBlockError(f"row_len outside 0..{ps.s}")
    rows, addrs = _directory(ps)
    bad = (addrs < 0) | (addrs >= ps.id_psum)
    if bad.any():
        raise MalformedBlockError(
            f"row {int(rows[np.argmax(bad)])}: address out of range")
    if len(np.unique(addrs)) != ps.id_psum:
        raise MalformedBlockError("addresses not a permutation of 0..id_psum-1")


def address_map(ps: PsumStore) -> OutputBlock:
    """Accumulate one store's psums, fetched row by row in insertion order."""
    rows, addrs = _directory(ps)
    return _accumulate(rows, ps.col_idx_psum[addrs], ps.value_psum[addrs])


def _accumulate(rows, cols, vals) -> OutputBlock:
    """Stable-sort psums by (row, column); ``np.add.reduceat`` each run (so
    1.0, 1e16, -1e16 sums to 1.0, not to the left-to-right 0.0)."""
    if not len(rows):
        return OutputBlock.empty()
    rows, cols, vals, starts = coordinate_runs(rows, cols, vals)
    return OutputBlock(rows[starts], cols[starts], np.add.reduceat(vals, starts))


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
    rows, cols, vals, starts = coordinate_runs(
        np.concatenate([p.row for p in parts]),
        np.concatenate([p.col for p in parts]),
        np.concatenate([p.value for p in parts]))
    ends = np.append(starts[1:], len(rows))
    out_vals = vals[starts].astype(np.float64)
    for i in np.flatnonzero(ends - starts > 1).tolist():
        out_vals[i] = math.fsum(vals[starts[i]:ends[i]])
    return OutputBlock(rows[starts], cols[starts], out_vals)


def assemble_output(merged: OutputBlock, geom: TilingGeometry) -> CscMatrix:
    """Build the m x n CSC result from the run's merged global outputs."""
    if merged.nnz and (min(merged.row.min(), merged.col.min()) < 0
                       or merged.row.max() >= geom.m
                       or merged.col.max() >= geom.n):
        raise MalformedBlockError(
            f"merged output exceeds the {geom.m}x{geom.n} result")
    order = np.argsort(merged.col, kind="stable")  # rows stay ascending
    col_ptr = np.zeros(geom.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(merged.col, minlength=geom.n), out=col_ptr[1:])
    return CscMatrix(geom.m, geom.n, merged.value[order], merged.row[order],
                     col_ptr)


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


def sdmm_compute(a_blk: RpCscBlock, b_rows: DenseMatrix) -> DensePsumGrid:
    """Dense accumulation of one A block against gathered dense rows.

    Every A entry adds its value times its column's dense row into its strip
    row; a strip row receives its products in ascending inner index.  The MAC
    counter only counts products whose dense operand is nonzero, matching
    the nonzero-product optimum.
    """
    if b_rows.n_rows != a_blk.col_all_len:
        raise GatherError(
            f"need {a_blk.col_all_len} gathered rows, got {b_rows.n_rows}")
    pos, group, rows, vals = a_blk.entry_table
    strip = np.zeros((a_blk.g_na * a_blk.m_t, b_rows.n_cols))
    # unbuffered: a repeated strip row takes its products in table (k) order
    np.add.at(strip, group * a_blk.m_t + rows, vals[:, None] * b_rows.data[pos])
    macs = int(np.count_nonzero(b_rows.data, axis=1)[pos].sum())
    return DensePsumGrid(strip=strip, macs=macs)


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
