"""The hybrid-product dataflow engine.

A PE grid of ``g_na x g_nb`` stores runs one outer product per group pair:
the block's shared column/row index streams are merge-joined, and for every
matched inner index each active PE multiplies its A-group slice against its
B-group slice.  Products land in an append-only psum store.

Accumulation order is fixed by the traversal: each store takes its products
in (inner index, A entry, B entry) order, and the end-of-pass map sums each
coordinate's run as a left fold in that order, as a fetch-accumulate unit
adds (``matrices.fold_runs``, by which ``canonicalize`` sums duplicates).
The run-wide merge folds each coordinate's partial sums the same way, in
the order they arrive, so every psum is a left fold in arrival order.
The sparse-dense path adds each A row's products into one dense strip in
ascending inner index, from +0.0.  Distinct PEs share no state, so results
are identical under any PE scheduling.

Store overflow (a product finding its row segment's ``s`` slots or the
store's ``c_psum`` entries full; both are ``HardwareConfig`` fields) either
aborts (policy ``fail``) or flushes the whole store through address mapping,
emitting a partial output block (policy ``spill``).  Counting each PE's and
each (PE, row)'s products tells whether any store overflows.  When none
does, each PE's products are one fill, all held, and the pass maps them
with one sort.  Otherwise one grid-wide cut divides a pass's PE-major
product stream into fills (one store's products between two flushes).  One
stable sort by (PE, row) gives every product the ``s``-th earlier product
of its row; a fill ends before the first product whose running maximum of
these lies inside it, or at ``c_psum`` products.  So each round (one per
overflow of the busiest store) is one search over the stores with products
left.  The grid keeps that fill as per-PE arrays (row lengths, peaks,
products, flushes), which is all the cost model reads.  A pass maps its
held psums and its flushes with one sort each, into one block each in
block-pair coordinates.

The grid a pass returns carries the pass's costs.  Compute is modeled
lockstep per inner index: the grid shares one pair of index cursors, so a
matched index costs the busiest PE's product count and every other index
consumed costs one cycle.  A sparse-dense pass costs, per A column, its
busiest group's entries times the PE width.  Address mapping costs one setup
cycle per non-empty row plus two per stored psum (index insert during
sorting, value fetch-accumulate), with concurrent per-PE units.

A pass calls ndarray methods and ufuncs, never numpy's Python-level
wrappers (``np.searchsorted`` takes 1.5-2.1 us against 0.65 us for the
method on 60-element arrays, 2-core Xeon VM); the sorts stay module-level
``np.argsort``, ``np.lexsort`` and ``np.sort`` calls, which the tests count.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .encoding import CpCsrBlock, RpCscBlock, TilingGeometry
from .errors import (DimensionError, GatherError, MalformedBlockError,
                     PsumOverflowError)
from .matrices import (CscMatrix, DenseMatrix, fold_runs, run_lengths,
                       run_starts, stable_order, strictly_rising)
from .planner import OVERFLOW_FAIL, HardwareConfig


@dataclass(frozen=True, eq=False)
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


@dataclass(eq=False)
class PsumGrid:
    """A pass's psum state, as arrays over its PEs (PE ``g * g_nb + h``).
    ``held`` maps the held psums and ``spilled`` lists every flush, PE-major,
    flush by flush."""

    shape: tuple  # (g_na, g_nb, m_t, n_t)
    s: int
    capacity: int
    row_len: np.ndarray  # (n_pe, m_t): each store row's held psums
    peak: np.ndarray  # per PE: its longest fill
    appended: np.ndarray  # per PE: every product
    spills: np.ndarray  # per PE: its flushes
    held: OutputBlock  # mapped, at (g * m_t + row, h * n_t + column)
    spilled: OutputBlock  # every flush, mapped, at the same coordinates
    compute_cycles: int = 0  # lockstep cost of ``compute_psums``' join

    def __iter__(self):
        """Each PE's ``peak_id`` and ``capacity``, which is all that
        ``perfbench/tracer.py``'s peak-occupancy loop reads; ROADMAP item 1
        has it read ``peak`` and deletes this."""
        return (SimpleNamespace(peak_id=p, capacity=self.capacity)
                for p in self.peak.tolist())

    @property
    def appended_products(self) -> int:
        return int(np.add.reduce(self.appended))

    @property
    def spill_events(self) -> int:
        return int(np.add.reduce(self.spills))

    @property
    def addrmap_cycles(self) -> int:
        """Concurrent per-PE sort/accumulate: 2 cycles per psum + 1 per row."""
        lens = self.row_len
        return int(np.maximum.reduce(np.add.reduce(2 * lens + (lens != 0), axis=1)))


@dataclass(eq=False)
class DensePsumGrid:
    """Dense accumulators of one sparse-dense pass, one strip row per A row."""

    strip: np.ndarray  # (g_na * m_t, width); row g * m_t + r is group g's row r
    macs: int
    compute_cycles: int  # lockstep: each column's busiest group x PE width
    addrmap_cycles = spill_events = 0  # a dense bank maps and spills nothing


def merge_join(a_blk: RpCscBlock,
               b_blk: CpCsrBlock) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the inner indices both blocks hold, in ascending k.

    Returns ``(ia, ib)``: ``a_blk.col_idx[ia] == b_blk.row_idx[ib]``.  Every
    other shared position is consumed without products.  Both streams rise
    strictly, so one search of A's stream in B's finds every match.
    """
    a_idx, b_idx = a_blk.col_idx, b_blk.row_idx
    ib = b_idx.searchsorted(a_idx)
    ia = (ib < len(b_idx)).nonzero()[0]  # none above B's last can match
    ia = ia[b_idx[ib[ia]] == a_idx[ia]]
    return ia, ib[ia]


def compute_psums(a_blk: RpCscBlock, b_blk: CpCsrBlock,
                  cfg: HardwareConfig | None = None) -> PsumGrid:
    """Merge-join the block pair's shared index streams and fill the grid.

    At every inner index both blocks hold, in ascending order, each (g,h)
    with both bitmap bits set appends the full outer product of its slices,
    all built at once and filled PE-major, (k, A entry, B entry) within a PE.
    Under ``fail`` the first overflow in (k, g, h) order raises, naming the
    blocks' tile (block row, block column, block k).
    Store limits come from ``cfg``, the grid's shape from the blocks.
    """
    if a_blk.block_k != b_blk.block_k:
        raise DimensionError(
            f"inner block mismatch: A k-block {a_blk.block_k}, "
            f"B k-block {b_blk.block_k}")
    cfg = cfg or HardwareConfig()
    s = cfg.s if cfg.s is not None else max(1, b_blk.n_t)
    pos_a, group_a, rows_a, vals_a = a_blk.entry_table
    pos_b, group_b, cols_b, vals_b = b_blk.entry_table
    # the entries at a matched position are one run of each table
    ia, ib = merge_join(a_blk, b_blk)
    a_lo, b_lo = pos_a.searchsorted(ia), pos_b.searchsorted(ib)
    na = pos_a.searchsorted(ia, side="right") - a_lo
    nb = pos_b.searchsorted(ib, side="right") - b_lo
    count = na * nb
    pair = np.arange(len(count)).repeat(count)
    within = np.arange(len(pair)) - (count.cumsum() - count).repeat(count)
    a_off, b_off = np.divmod(within, nb[pair])
    ea, eb = a_lo[pair] + a_off, b_lo[pair] + b_off
    pe = group_a[ea] * b_blk.g_nb + group_b[eb]
    order = stable_order(pe, a_blk.g_na * b_blk.g_nb)  # PE-major, (k, a, b) in a PE
    ea, eb, pe = ea[order], eb[order], pe[order]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = vals_a[ea] * vals_b[eb]
    grid, starts = fill_grid(pe, rows_a[ea], cols_b[eb], vals,
                             (a_blk.g_na, b_blk.g_nb, a_blk.m_t, b_blk.n_t),
                             s, cfg.c_psum)
    if cfg.overflow_policy == OVERFLOW_FAIL and grid.spill_events:
        # a fill that follows another of its PE starts at that PE's overflow
        over = (pe[starts[1:]] == pe[starts[:-1]]).nonzero()[0] + 1
        i = over[np.lexsort((pe[starts[over]], pair[order[starts[over]]]))[0]]
        tile = (a_blk.block_row, b_blk.block_col, a_blk.block_k)
        raise PsumOverflowError(
            f"psum overflow at tile {tile}: id_psum={starts[i] - starts[i - 1]}, "
            f"capacity={cfg.c_psum}, segment size={s}")
    grid.compute_cycles = int(a_blk.busiest[ia] @ b_blk.busiest[ib]) + (
        a_blk.col_all_len + b_blk.row_all_len - 2 * len(ia))
    return grid


def fill_grid(pe, rows, cols, vals, shape: tuple, s: int,
              capacity: int) -> tuple[PsumGrid, np.ndarray]:
    """Fill every PE's store from one PE-major product stream, all at once.

    ``shape`` is ``(g_na, g_nb, m_t, n_t)``; product i goes to PE ``pe[i] =
    g * g_nb + h``, store row ``rows[i]``, column ``cols[i]``.  A fill is one
    store's products between two flushes: the longest run that keeps to
    ``capacity`` entries and ``s`` per row.  One ``np.bincount`` of (PE, row)
    decides whether any store overflows.  If none does, each PE with
    products is one fill, its store holds all of them, and the only sort is
    the held map's.  Otherwise the cut runs: one stable sort by (PE, row)
    gives each product its ``s``-th earlier product in its row, and ``reach``
    their running maximum: a fill from ``lo`` overflows at the first product
    whose ``reach`` is ``lo`` or more, so each round cuts the next fill of
    every PE with products left by one search.  A PE's last fill is what its
    store holds; the others are flushed, keyed by fill.  Returns the grid and
    each fill's start.
    """
    g_na, g_nb, m_t, _ = shape
    n_pe = g_na * g_nb
    bounds = pe.searchsorted(np.arange(n_pe + 1))
    appended = bounds[1:] - bounds[:-1]
    key = pe * m_t + rows
    row_len = np.bincount(key, minlength=n_pe * m_t)
    if (np.maximum.reduce(appended) <= capacity
            and np.maximum.reduce(row_len) <= s):
        # no store overflows: each PE's products are one fill, all held
        return PsumGrid(
            shape, s, capacity, row_len.reshape(n_pe, m_t), appended.copy(),
            appended, np.zeros(n_pe, dtype=np.int64),
            _accumulate(*_at_pe(pe, rows, cols, shape), vals),
            OutputBlock.empty()), bounds[:-1][appended > 0]
    order = stable_order(key, n_pe * m_t)  # each row's products in stream order
    first = row_len.cumsum() - row_len  # each (PE, row)'s first place in it
    back = (np.arange(len(order)) - first[key[order]] >= s).nonzero()[0]
    reach = np.empty(len(pe), dtype=np.int64)
    reach.fill(-1)
    reach[order[back]] = order[back - s]  # the s-th earlier product in the row
    del key, order, first
    np.maximum.accumulate(reach, out=reach)
    lo, hi, starts = bounds[:-1], bounds[1:], [bounds[:0]]
    while np.logical_or.reduce(open_ := lo < hi):
        lo, hi = lo[open_], hi[open_]
        starts.append(lo)
        lo = np.minimum(lo + np.minimum(hi - lo, min(capacity, m_t * s)),
                        reach.searchsorted(lo))
    del reach
    starts = np.sort(np.concatenate(starts))
    lengths = run_lengths(starts, len(pe))
    fill, fill_pe = np.arange(len(starts)).repeat(lengths), pe[starts]
    last = run_starts(fill_pe[::-1])[::-1]  # a PE's last fill: a run start, reversed
    held = last[fill]
    h_pe, h_rows = pe[held], rows[held]
    flushes = _accumulate(fill[~held] * m_t + rows[~held], cols[~held],
                          vals[~held])
    f, f_rows = np.divmod(flushes.row, m_t)
    peak = np.zeros(n_pe, dtype=np.int64)
    np.maximum.at(peak, fill_pe, lengths)
    return PsumGrid(
        shape, s, capacity, np.bincount(h_pe * m_t + h_rows,
                                        minlength=n_pe * m_t).reshape(n_pe, m_t),
        peak, appended, np.bincount(fill_pe[~last], minlength=n_pe),
        _accumulate(*_at_pe(h_pe, h_rows, cols[held], shape), vals[held]),
        OutputBlock(*_at_pe(fill_pe[f], f_rows, flushes.col, shape),
                    flushes.value)), starts


def _at_pe(pe, rows, cols, shape: tuple):
    """Block-pair coordinates of PE ``pe = g * g_nb + h``'s local (row, col)."""
    _, g_nb, m_t, n_t = shape
    g, h = np.divmod(pe, g_nb)
    return g * m_t + rows, h * n_t + cols


def _accumulate(rows, cols, vals) -> OutputBlock:
    """Address mapping: ``fold_runs`` (1.0, 1e16, -1e16 sums to 0.0)."""
    return OutputBlock(*fold_runs(rows, cols, vals))


def merge_output_blocks(parts: list[OutputBlock]) -> OutputBlock:
    """Sorted (row, column) merge summing coincident coordinates.

    The parts are taken in the given order, which ``costmodel.run`` makes
    each coordinate's arrival order (k-major: a pass's flushes in fill
    order, then its held psums), and each coordinate's run is a left fold
    in that order: ``fold_runs``, as the address map sums a store.  The
    concatenations are passed straight to it, which frees them once sorted.
    A lone strictly rising part is already merged and comes back as it is.
    """
    parts = [p for p in parts if p.nnz]
    if not parts:
        return OutputBlock.empty()
    if len(parts) == 1 and strictly_rising(parts[0].row, parts[0].col):
        return parts[0]  # already merged
    return OutputBlock(*fold_runs(np.concatenate([p.row for p in parts]),
                                  np.concatenate([p.col for p in parts]),
                                  np.concatenate([p.value for p in parts])))


def assemble_output(merged: OutputBlock, geom: TilingGeometry) -> CscMatrix:
    """Build the m x n CSC result from the run's merged global outputs."""
    row, col = merged.row, merged.col
    if merged.nnz and (min(np.minimum.reduce(row), np.minimum.reduce(col)) < 0
                       or np.maximum.reduce(row) >= geom.m
                       or np.maximum.reduce(col) >= geom.n):
        raise MalformedBlockError(
            f"merged output exceeds the {geom.m}x{geom.n} result")
    order = stable_order(col, geom.n)  # rows stay ascending
    col_ptr = np.zeros(geom.n + 1, dtype=np.int64)
    np.bincount(col, minlength=geom.n).cumsum(out=col_ptr[1:])
    return CscMatrix(geom.m, geom.n, merged.value[order], row[order], col_ptr)


def sdmm_compute(a_blk: RpCscBlock, b: DenseMatrix, geom: TilingGeometry,
                 block_col: int) -> DensePsumGrid:
    """One sparse-dense pass: an A block against B's output block columns.

    One output column at a time, B's column is gathered at the A entries'
    inner indices and one weighted ``np.bincount`` adds each entry's value
    times it into the entry's strip row, ``out[row] += product`` in input
    order from +0.0, so a strip cell receives its products in table
    (ascending inner index) order; memory is O(nnz + rows x width).  The MAC
    counter only counts products whose dense operand is nonzero, matching
    the nonzero-product optimum.
    """
    k_lo, k_hi = geom.k_span(a_blk.block_k)
    c_lo, c_hi = geom.block_cols(block_col)
    pos, group, rows, vals = a_blk.entry_table
    k = a_blk.col_idx[pos]
    if len(k) and k_lo + int(k.max()) >= b.n_rows:
        raise GatherError(
            f"dense operand has {b.n_rows} rows; column index "
            f"{k_lo + int(k.max())} has no matching row")
    tile = b.data[k_lo:k_hi, c_lo:c_hi]
    n_rows, width = a_blk.g_na * a_blk.m_t, c_hi - c_lo
    strip_row = group * a_blk.m_t + rows
    strip = np.empty((width, n_rows))  # one contiguous row per column
    with np.errstate(over="ignore", invalid="ignore"):
        for j, column in enumerate(tile.T):
            # written into the float strip: an empty block's bincount is int64
            strip[j] = np.bincount(strip_row, vals * column.take(k),
                                   minlength=n_rows)
    return DensePsumGrid(strip.T, int(np.count_nonzero(tile, axis=1)[k].sum()),
                         int(a_blk.busiest.sum()) * min(geom.n_t, width))
