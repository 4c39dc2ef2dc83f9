"""Group-partitioned block encodings consumed by the PE grid.

An A block covers ``g_na`` row groups of ``m_t`` rows by one ``k_t``-wide
column strip.  In the paper's RP-CSC format it holds, per group, the value /
group-local row / per-column length streams, plus shared streams over the
block's non-empty columns: the block-local column index and a bitmap of which
groups touch that column.  B is encoded the same way mirrored over rows (CP-
CSR), with ``g_nb`` column groups of ``n_t``: one format seen from the two
sides of the inner dimension k.

A block stores the shared index stream and its entry table: every entry as
(position in the shared stream, group, group-local index, value), in
(position, group) order, with each position's busiest group run.  The
encoder sorts only when the input's entries are out of that order; a
canonical matrix's (from ``to_csc``/``to_csr``) never are.  The
engine and the cost model read only these.  The paper's per-group streams
and bitmap are the same entries grouped by (group, position), so a block
stores nothing else.  Edge blocks may be ragged: the table simply holds
fewer entries, and the geometry carries the full dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, DegenerateInputError
from .matrices import (CscMatrix, CsrMatrix, run_lengths, run_starts,
                       stable_order)


@dataclass(frozen=True)
class TilingGeometry:
    """Block/group hierarchy: tile counts, tile dims, group counts, full dims.

    Row strips of A are ``g_na * m_t`` tall (one ``m_t`` slice per group);
    column strips of B are ``g_nb * n_t`` wide.  Tile counts are ceiling
    divisions, so ``t_m * g_na * m_t >= m`` etc., with ragged last tiles.
    """

    m: int
    k: int
    n: int
    m_t: int
    k_t: int
    n_t: int
    t_m: int
    t_k: int
    t_n: int
    g_na: int
    g_nb: int

    def k_span(self, block_k: int) -> tuple[int, int]:
        lo = block_k * self.k_t
        return min(lo, self.k), min(lo + self.k_t, self.k)

    def block_rows(self, block_row: int) -> tuple[int, int]:
        """Global row range of a whole A row strip (all groups)."""
        lo = block_row * self.g_na * self.m_t
        return min(lo, self.m), min(lo + self.g_na * self.m_t, self.m)

    def block_cols(self, block_col: int) -> tuple[int, int]:
        lo = block_col * self.g_nb * self.n_t
        return min(lo, self.n), min(lo + self.g_nb * self.n_t, self.n)


def make_geometry(plan, dims: tuple[int, int, int],
                  groups: tuple[int, int]) -> TilingGeometry:
    """Build the geometry for a partition plan over concrete dimensions.

    Tile counts are recomputed by ceiling division so ragged edges are always
    covered, whatever counts the plan carries.
    """
    m, k, n = dims
    g_na, g_nb = groups
    if m <= 0 or k <= 0 or n <= 0:
        raise DegenerateInputError(f"matrix dimensions must be positive, got {dims}")
    if g_na <= 0 or g_nb <= 0:
        raise DegenerateInputError(f"group counts must be positive, got {groups}")
    if plan.m_t <= 0 or plan.k_t <= 0 or plan.n_t <= 0:
        raise DegenerateInputError("tile dimensions must be positive")
    t_m = -(-m // (g_na * plan.m_t))
    t_k = -(-k // plan.k_t)
    t_n = -(-n // (g_nb * plan.n_t))
    return TilingGeometry(m=m, k=k, n=n, m_t=plan.m_t, k_t=plan.k_t,
                          n_t=plan.n_t, t_m=t_m, t_k=t_k, t_n=t_n,
                          g_na=g_na, g_nb=g_nb)


class _GroupBlock:
    """Orientation-free behaviour shared by both block types."""

    @property
    def nnz(self) -> int:
        return len(self.entry_table[0])


@dataclass(frozen=True, eq=False)
class RpCscBlock(_GroupBlock):
    """Row-partitioned CSC encoding of one A block.

    col_idx has one entry per non-empty block column.  entry_table holds
    every entry as ``(position, group, local row, value)`` arrays in
    (position, group, input) order, ``position`` indexing col_idx and local
    rows being group-local (0..m_t-1); busiest holds each column's longest
    member-group run.
    """

    g_na: int
    m_t: int
    block_row: int
    block_k: int
    col_idx: np.ndarray
    entry_table: tuple[np.ndarray, ...]
    busiest: np.ndarray

    @property
    def col_all_len(self) -> int:
        return len(self.col_idx)


@dataclass(frozen=True, eq=False)
class CpCsrBlock(_GroupBlock):
    """Column-partitioned CSR encoding of one B block (mirror over rows).

    row_idx has one entry per non-empty block row, and the table's local
    indices are group-local columns (0..n_t-1).
    """

    g_nb: int
    n_t: int
    block_k: int
    block_col: int
    row_idx: np.ndarray
    entry_table: tuple[np.ndarray, ...]
    busiest: np.ndarray

    @property
    def row_all_len(self) -> int:
        return len(self.row_idx)


def _encode_strip(ptr: np.ndarray, idx: np.ndarray, val: np.ndarray,
                  k_span: tuple[int, int], outer_span: tuple[int, int],
                  n_groups: int, tile: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Group-partition one strip of a matrix compressed along k.

    ``ptr``/``idx``/``val`` are A's CSC or B's CSR arrays.  Entries of the k
    range whose outer index lies in ``outer_span`` land in group
    ``(idx - lo) // tile`` with group-local indices; k positions with no such
    entry are omitted from the shared stream.  A mask, taken only when some
    entry lies outside the span, keeps the entries in input order, k
    ascending; a stable sort by (position, group), taken only when they are
    out of that order, makes the entry table, in which each (position,
    group) run is one group's entries at one position: the longest sets its
    position's busiest run.
    Returns the block's shared stream, the table and the busiest runs, in
    the blocks' field order.
    """
    k_lo, k_hi = k_span
    lo, hi = outer_span
    first, last = ptr[k_lo], ptr[k_hi]
    inner = np.arange(k_hi - k_lo, dtype=np.int64).repeat(
        ptr[k_lo + 1:k_hi + 1] - ptr[k_lo:k_hi])
    outer, vals = idx[first:last], val[first:last]
    if len(outer) and (np.minimum.reduce(outer) < lo
                       or np.maximum.reduce(outer) >= hi):
        keep = (outer >= lo) & (outer < hi)
        inner, outer, vals = inner[keep], outer[keep], vals[keep]
    outer = outer - lo
    new = run_starts(inner)  # each shared position's first entry
    inner_idx = inner[new]
    position = new.cumsum() - 1
    group, local = np.divmod(outer, tile)
    group = group.astype(np.int64, copy=False)
    key = position * n_groups + group
    table = (position, group, local, vals)
    if np.logical_or.reduce(key[1:] < key[:-1]):  # a canonical matrix's key rises
        order = stable_order(key, len(inner_idx) * n_groups)
        table = tuple(a[order] for a in table)
        key = key[order]
    starts = run_starts(key).nonzero()[0]
    # the sort moves no entry out of its position's span, so ``new`` still
    # marks each position's first entry, and its first run
    busiest = np.maximum.reduceat(run_lengths(starts, len(key)),
                                  new[starts].nonzero()[0])
    return inner_idx, table, busiest


def encode_rp_csc(a: CscMatrix, geom: TilingGeometry,
                  block_row: int, block_k: int) -> RpCscBlock:
    """Encode the (block_row, block_k) tile of A, grouped over rows."""
    if not (0 <= block_row < geom.t_m and 0 <= block_k < geom.t_k):
        raise BoundsError(
            f"block ({block_row},{block_k}) outside {geom.t_m}x{geom.t_k} grid")
    return RpCscBlock(geom.g_na, geom.m_t, block_row, block_k, *_encode_strip(
        a.col_ptr, a.row_idx, a.value, geom.k_span(block_k),
        geom.block_rows(block_row), geom.g_na, geom.m_t))


def encode_cp_csr(b: CsrMatrix, geom: TilingGeometry,
                  block_k: int, block_col: int) -> CpCsrBlock:
    """Encode the (block_k, block_col) tile of B, grouped over columns."""
    if not (0 <= block_k < geom.t_k and 0 <= block_col < geom.t_n):
        raise BoundsError(
            f"block ({block_k},{block_col}) outside {geom.t_k}x{geom.t_n} grid")
    return CpCsrBlock(geom.g_nb, geom.n_t, block_k, block_col, *_encode_strip(
        b.row_ptr, b.col_idx, b.value, geom.k_span(block_k),
        geom.block_cols(block_col), geom.g_nb, geom.n_t))
