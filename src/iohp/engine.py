"""The hybrid-product dataflow engine.

A PE grid of ``g_na x g_nb`` stores runs one outer product per group pair:
the block's shared column/row index streams are merge-joined, and for every
matched inner index each active PE multiplies its A-group slice against its
B-group slice.  Products land in an append-only psum store whose per-row
address directory makes the later sort/accumulate pass regular.

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
emitting a partial output block (policy ``spill``).  One grid-wide fill cuts
a pass's PE-major product stream into fills (one store's products between
two flushes) in one round per overflow of the busiest store.  The grid keeps
that fill as per-PE arrays (row lengths, peaks, products, flushes), which is
all the cost model reads; the per-store ``PsumStore`` records are built from
them only when something inspects a store.  A pass maps its held psums and
its flushes with one sort each, into one block each in block-pair
coordinates.

Compute is modeled lockstep per inner index: the grid shares one pair of
index cursors, so a matched index costs the busiest PE's product count and
every other index consumed costs one cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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


@dataclass
class PsumStore:
    """One PE's psum store at the end of a pass, a record of the grid fill.

    ``value_psum``/``col_idx_psum`` hold its last fill (``id_psum`` psums) in
    address order; ``vc_addr[r, :row_len[r]]`` lists row r's addresses in
    insertion order (slots in use only: as wide as the grid's longest held
    row).  ``spilled`` keeps each earlier fill's flush, mapped, in order;
    ``peak_id`` is the longest fill, ``appended_total`` all its products.
    """

    m_t: int
    s: int
    capacity: int
    value_psum: np.ndarray
    col_idx_psum: np.ndarray
    vc_addr: np.ndarray
    row_len: np.ndarray
    id_psum: int
    peak_id: int
    appended_total: int
    spill_events: int
    spilled: list[OutputBlock]


@dataclass
class PsumGrid:
    """A pass's psum state, as arrays over its PEs (PE ``g * g_nb + h``).
    ``held`` maps the held psums and ``spilled`` lists every flush, PE-major,
    flush by flush; ``stores[g][h]`` records are built on first use."""

    shape: tuple  # (g_na, g_nb, m_t, n_t)
    s: int
    capacity: int
    row_len: np.ndarray  # (n_pe, m_t): each store row's held psums
    peak: np.ndarray  # per PE: its longest fill
    appended: np.ndarray  # per PE: every product
    spills: np.ndarray  # per PE: its flushes
    held: OutputBlock  # mapped, at (g * m_t + row, h * n_t + column)
    spilled: OutputBlock  # every flush, mapped, at the same coordinates
    stored: tuple  # held psums' (pe, row, slot, column, value), address order
    flushed: tuple  # ``spilled`` as (row, column, value) in store coordinates
    flush_at: np.ndarray  # each flush's start in ``spilled``/``flushed``
    compute_cycles: int = 0  # lockstep cost of ``compute_psums``' join

    @cached_property
    def stores(self) -> list[list[PsumStore]]:
        g_na, g_nb, m_t, _ = self.shape
        pe, rows, slot, cols, vals = self.stored
        first = np.searchsorted(pe, np.arange(g_na * g_nb))
        vc_addr = np.zeros((*self.row_len.shape, self.row_len.max()), np.int64)
        vc_addr[pe, rows, slot] = np.arange(len(pe)) - first[pe]
        blocks = map(OutputBlock, *(np.split(a, self.flush_at)[1:]
                                    for a in self.flushed))
        records = [PsumStore(m_t, self.s, self.capacity, v, c, addr, lens,
                             len(v), p, t, n, [next(blocks) for _ in range(n)])
                   for v, c, addr, lens, p, t, n in zip(
                       np.split(vals, first[1:]), np.split(cols, first[1:]),
                       vc_addr, self.row_len.copy(), *(a.tolist() for a in (
                           self.peak, self.appended, self.spills)))]
        return [records[g * g_nb:(g + 1) * g_nb] for g in range(g_na)]

    def __iter__(self):
        return (st for row in self.stores for st in row)

    @property
    def appended_products(self) -> int:
        return int(self.appended.sum())

    @property
    def spill_events(self) -> int:
        return int(self.spills.sum())


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
    with both bitmap bits set appends the full outer product of its slices,
    all built at once and filled PE-major, (k, A entry, B entry) within a PE.
    Under ``fail`` the overflow raised is the first in (k, g, h) order.
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
    order = np.argsort(pe, kind="stable")  # PE-major, (k, a, b) within a PE
    pair, ea, eb, pe = pair[order], ea[order], eb[order], pe[order]
    grid, starts = fill_grid(pe, rows_a[ea], cols_b[eb], vals_a[ea] * vals_b[eb],
                             (a_blk.g_na, b_blk.g_nb, a_blk.m_t, b_blk.n_t),
                             s, cfg.c_psum)
    # a fill that follows another of its PE starts at that PE's overflow
    over = np.flatnonzero(pe[starts[1:]] == pe[starts[:-1]]) + 1
    if cfg.overflow_policy == OVERFLOW_FAIL and len(over):
        i = over[np.lexsort((pe[starts[over]], pair[starts[over]]))[0]]
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
    ``capacity`` entries and ``s`` per row.  Each round cuts the next fill of
    every PE with products left, so the loop runs once per overflow of the
    busiest store.  A PE's last fill is what its store holds; the others are
    flushed, keyed by fill.  Returns the grid and each fill's start.
    """
    g_na, g_nb, m_t, _ = shape
    n_pe = g_na * g_nb
    bounds = np.searchsorted(pe, np.arange(n_pe + 1))
    slot = np.empty(len(pe), dtype=np.int64)  # each product's slot in its row
    lo, hi, starts = bounds[:-1], bounds[1:], [bounds[:0]]
    while (open_ := lo < hi).any():
        lo, hi = lo[open_], hi[open_]
        starts.append(lo)
        n = np.minimum(hi - lo, min(capacity, m_t * s))  # no fill is longer
        win = np.repeat(np.arange(len(n)), n)
        at = np.arange(len(win)) - np.repeat(np.cumsum(n) - n, n)
        idx = lo[win] + at
        key = win * m_t + rows[idx]
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        slot[idx[order]] = np.arange(len(idx)) - np.repeat(
            first, np.diff(first, append=len(idx)))
        full = np.flatnonzero(slot[idx] >= s)
        np.minimum.at(n, win[full], at[full])  # stop before a full row
        lo = lo + n
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
        peak, np.diff(bounds), np.bincount(fill_pe[~last], minlength=n_pe),
        _accumulate(*_at_pe(h_pe, h_rows, cols[held], shape), vals[held]),
        OutputBlock(*_at_pe(fill_pe[f], f_rows, flushes.col, shape),
                    flushes.value),
        (h_pe, h_rows, slot[held], cols[held], vals[held]),
        (f_rows, flushes.col, flushes.value),
        np.searchsorted(f, np.flatnonzero(~last))), starts


def _at_pe(pe, rows, cols, shape: tuple):
    """Block-pair coordinates of PE ``pe = g * g_nb + h``'s local (row, col)."""
    _, g_nb, m_t, n_t = shape
    return pe // g_nb * m_t + rows, pe % g_nb * n_t + cols


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
    wide = np.flatnonzero(ps.row_len > ps.vc_addr.shape[1])
    if len(wide):
        raise MalformedBlockError(
            f"row {int(wide[0])}: row_len {int(ps.row_len[wide[0]])} exceeds "
            f"the directory's {ps.vc_addr.shape[1]} slots")
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
    """Sorted (row, column) merge summing coincident coordinates.

    Each sum is the exact sum correctly rounded, so the result is identical
    under any permutation or regrouping of the inputs.  Two-term runs, the
    common case, are summed together as arrays, since IEEE ``a + b`` is that
    rounding (bar -0.0 + -0.0, set to fsum's +0.0); longer runs, and pairs
    of nans, whose sign fsum decides, go through ``_exact_sum`` one by one.
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
    length = np.diff(starts, append=len(rows))
    out_vals = vals[starts].astype(np.float64)
    two = np.flatnonzero(length == 2)
    a, b = out_vals[two], vals[starts[two] + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        out_vals[two] = a + b + 0.0  # + 0.0: fsum's +0.0 for -0.0 + -0.0
    slow = length > 2
    slow[two] = np.isnan(a) & np.isnan(b)  # which nan numpy keeps varies
    for i in np.flatnonzero(slow).tolist():
        out_vals[i] = _exact_sum(vals[starts[i]:starts[i] + length[i]])
    return OutputBlock(rows[starts], cols[starts], out_vals)


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
