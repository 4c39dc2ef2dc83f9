"""The hybrid-product dataflow engine.

A PE grid of ``g_na x g_nb`` stores runs one outer product per group pair:
the block's shared column/row index streams are merge-joined, and for every
matched inner index each active PE multiplies its A-group slice against its
B-group slice.  Products land in an append-only psum store.

Accumulation order is fixed by the traversal: a block pair's products are
built at once and each store takes its own in (inner index, A entry,
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .encoding import CpCsrBlock, RpCscBlock, TilingGeometry
from .errors import (DimensionError, GatherError, MalformedBlockError,
                     PsumOverflowError)
from .matrices import CscMatrix, DenseMatrix, coordinate_runs, stable_order
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
        return int(self.appended.sum())

    @property
    def spill_events(self) -> int:
        return int(self.spills.sum())

    @property
    def addrmap_cycles(self) -> int:
        """Concurrent per-PE sort/accumulate: 2 cycles per psum + 1 per row."""
        lens = self.row_len
        return int((2 * lens.sum(axis=1) + np.count_nonzero(lens, axis=1)).max())


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
    ib = np.searchsorted(b_idx, a_idx)
    ia = np.flatnonzero(ib < len(b_idx))  # none above B's last can match
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
    a_lo, b_lo = np.searchsorted(pos_a, ia), np.searchsorted(pos_b, ib)
    na = np.searchsorted(pos_a, ia, side="right") - a_lo
    nb = np.searchsorted(pos_b, ib, side="right") - b_lo
    count = na * nb
    pair = np.repeat(np.arange(len(count)), count)
    within = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    ea = a_lo[pair] + within // nb[pair]
    eb = b_lo[pair] + within % nb[pair]
    pe = group_a[ea] * b_blk.g_nb + group_b[eb]
    order = stable_order(pe, a_blk.g_na * b_blk.g_nb)  # PE-major, (k, a, b) in a PE
    pair, ea, eb, pe = pair[order], ea[order], eb[order], pe[order]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = vals_a[ea] * vals_b[eb]
    grid, starts = fill_grid(pe, rows_a[ea], cols_b[eb], vals,
                             (a_blk.g_na, b_blk.g_nb, a_blk.m_t, b_blk.n_t),
                             s, cfg.c_psum)
    # a fill that follows another of its PE starts at that PE's overflow
    over = np.flatnonzero(pe[starts[1:]] == pe[starts[:-1]]) + 1
    if cfg.overflow_policy == OVERFLOW_FAIL and len(over):
        i = over[np.lexsort((pe[starts[over]], pair[starts[over]]))[0]]
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
    bounds = np.searchsorted(pe, np.arange(n_pe + 1))
    appended = np.diff(bounds)
    key = pe * m_t + rows
    row_len = np.bincount(key, minlength=n_pe * m_t)
    if appended.max() <= capacity and row_len.max() <= s:
        # no store overflows: each PE's products are one fill, all held
        return PsumGrid(
            shape, s, capacity, row_len.reshape(n_pe, m_t), appended.copy(),
            appended, np.zeros(n_pe, dtype=np.int64),
            _accumulate(*_at_pe(pe, rows, cols, shape), vals),
            OutputBlock.empty()), bounds[:-1][appended > 0]
    order = stable_order(key, n_pe * m_t)  # each row's products in stream order
    first = np.cumsum(row_len) - row_len  # each (PE, row)'s first place in it
    back = np.flatnonzero(np.arange(len(order)) - first[key[order]] >= s)
    reach = np.full(len(pe), -1)
    reach[order[back]] = order[back - s]  # the s-th earlier product in the row
    del key, order, first
    np.maximum.accumulate(reach, out=reach)
    lo, hi, starts = bounds[:-1], bounds[1:], [bounds[:0]]
    while (open_ := lo < hi).any():
        lo, hi = lo[open_], hi[open_]
        starts.append(lo)
        lo = np.minimum(lo + np.minimum(hi - lo, min(capacity, m_t * s)),
                        np.searchsorted(reach, lo))
    del reach
    starts = np.sort(np.concatenate(starts))
    lengths = np.diff(starts, append=len(pe))
    fill, fill_pe = np.repeat(np.arange(len(starts)), lengths), pe[starts]
    last = np.diff(fill_pe, append=n_pe) > 0  # a PE's last fill
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
    return pe // g_nb * m_t + rows, pe % g_nb * n_t + cols


def _accumulate(rows, cols, vals) -> OutputBlock:
    """Stable-sort psums by (row, column); ``np.add.reduceat`` each run (so
    1.0, 1e16, -1e16 sums to 1.0, not to the left-to-right 0.0)."""
    if not len(rows):
        return OutputBlock.empty()
    rows, cols, vals, starts = coordinate_runs(rows, cols, vals)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.reduceat(vals, starts)
    return OutputBlock(rows[starts], cols[starts], sums)


def merge_output_blocks(parts: list[OutputBlock]) -> OutputBlock:
    """Sorted (row, column) merge summing coincident coordinates.

    Each sum is the exact sum correctly rounded, so the result is identical
    under any permutation or regrouping of the inputs.  Two-term runs, the
    common case, are summed together as arrays, since IEEE ``a + b`` is that
    rounding (bar -0.0 + -0.0, set to fsum's +0.0); longer runs are summed
    together by ``_proved_sums``' TwoSum cascade.  The runs it cannot prove
    (zero sums, ties its error terms leave open, nans, infinities,
    overflows), and pairs of nans, whose sign fsum decides, go through
    ``_exact_sum`` one by one.
    """
    parts = [p for p in parts if p.nnz]
    if not parts:
        return OutputBlock.empty()
    if len(parts) == 1:  # already merged if its (row, col) pairs strictly rise
        r, c = parts[0].row, parts[0].col
        if np.all((r[1:] > r[:-1]) | ((r[1:] == r[:-1]) & (c[1:] > c[:-1]))):
            return parts[0]
    rows, cols, vals, starts = coordinate_runs(
        np.concatenate([p.row for p in parts]),
        np.concatenate([p.col for p in parts]),
        np.concatenate([p.value for p in parts]))
    length = np.diff(starts, append=len(rows))
    out_vals = vals[starts].astype(np.float64)
    two = np.flatnonzero(length == 2)
    a, b = out_vals[two], vals[starts[two] + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        out_vals[two] = a + b + 0.0  # + 0.0: fsum's +0.0 for -0.0 + -0.0
    slow = np.zeros(len(starts), dtype=bool)
    slow[two] = np.isnan(a) & np.isnan(b)  # which nan numpy keeps varies
    long = np.flatnonzero(length > 2)
    if len(long):
        long = long[np.argsort(-length[long])]
        out_vals[long], proved = _proved_sums(vals, starts[long], length[long])
        slow[long[~proved]] = True
    for i in np.flatnonzero(slow).tolist():
        out_vals[i] = _exact_sum(vals[starts[i]:starts[i] + length[i]])
    return OutputBlock(rows[starts], cols[starts], out_vals)


def _proved_sums(vals, first, length) -> tuple[np.ndarray, np.ndarray]:
    """Each run's float sum, and where it is provably the correctly rounded
    exact sum; run i is ``vals[first[i]:first[i] + length[i]]``, and the
    lengths do not rise.

    TwoSum (Knuth), cascaded over the runs one term position at a time,
    gives each run's float sum ``p`` and each step's exact error ``e_j``;
    cascaded over the ``e_j`` in turn, it gives their float sum ``c`` and
    its exact errors ``f_j``, so the exact sum is ``p + c + sum(f_j)``
    (Ogita, Rump and Oishi, "Accurate Sum and Dot Product", 2005).  Then
    ``(y, d) = TwoSum(p, c)``.  Where every ``f_j`` is 0, ``p + c`` is the
    exact sum and ``y`` is IEEE's rounding of it.  Elsewhere the exact sum
    is within ``|d| + 2 * sum|f_j|`` of ``y`` (the float ``sum|f_j|`` is at
    least ``1 - L * 2**-53`` times the exact one), and ``y`` is its rounding
    where that is less than half the gap from ``|y|`` down to the next
    double (the gap above is never smaller).  A zero ``y`` (fsum decides its
    sign), a nan, an infinity or an overflow anywhere fails the test.  The
    cascade takes no more steps than the product took passes and fill
    rounds, since each of a run's terms comes from a distinct one.
    """
    p = vals[first].astype(np.float64)
    c, size = np.zeros(len(p)), np.zeros(len(p))
    opened = np.searchsorted(-length, -np.arange(1, length[0]))  # length > j
    with np.errstate(over="ignore", invalid="ignore"):
        for j, n in enumerate(opened.tolist(), 1):
            e = _two_sum(p[:n], vals[first[:n] + j])
            size[:n] += np.abs(_two_sum(c[:n], e))
        d = _two_sum(p, c)
        mag = np.abs(p)
        half_gap = (mag - np.nextafter(mag, 0)) / 2
        proved = np.isfinite(p) & np.isfinite(d) & (p != 0) & (
            (size == 0) | (np.abs(d) + 2 * size < half_gap))
    return p, proved


def _two_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sets ``a`` to ``fl(a + b)`` in place and returns the exact error
    ``a + b - fl(a + b)``; exact unless a step overflows, when the error is
    not finite."""
    s = a + b
    back = s - a
    err = (a - (s - back)) + (b - back)
    a[...] = s
    return err


def _exact_sum(vals: np.ndarray) -> float:
    """A run's sum as ``math.fsum`` gives it; where fsum raises, the IEEE
    rounding of the exact sum: nan where a nan is present or +inf meets -inf,
    the infinity where one is present, else the exact rational sum rounded
    to the nearest double (+-inf only past the double range)."""
    try:
        return math.fsum(vals)
    except (OverflowError, ValueError):
        special = vals[~np.isfinite(vals)].tolist()
        if special:
            return sum(special)
        exact = sum(map(Fraction, vals.tolist()))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def assemble_output(merged: OutputBlock, geom: TilingGeometry) -> CscMatrix:
    """Build the m x n CSC result from the run's merged global outputs."""
    if merged.nnz and (min(merged.row.min(), merged.col.min()) < 0
                       or merged.row.max() >= geom.m
                       or merged.col.max() >= geom.n):
        raise MalformedBlockError(
            f"merged output exceeds the {geom.m}x{geom.n} result")
    order = stable_order(merged.col, geom.n)  # rows stay ascending
    col_ptr = np.zeros(geom.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(merged.col, minlength=geom.n), out=col_ptr[1:])
    return CscMatrix(geom.m, geom.n, merged.value[order], merged.row[order],
                     col_ptr)


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
