"""Group-partitioned block encodings consumed by the PE grid.

An A block covers ``g_na`` row groups of ``m_t`` rows by one ``k_t``-wide
column strip.  In the paper's RP-CSC format it holds, per group, the value /
group-local row / per-column length streams, plus shared streams over the
block's non-empty columns: the block-local column index and a bitmap of which
groups touch that column.  B is encoded the same way mirrored over rows (CP-
CSR), with ``g_nb`` column groups of ``n_t``.

A block stores the shared index stream and its entry table: every entry as
(position in the shared stream, group, group-local index, value), built by
the encoder with one sort, with each position's busiest group run.  The
engine and the cost model read only these.  The per-group streams and the
bitmap are one cached :class:`GroupStreams` view read off the table when a
block is inspected (dumped, or its streams read by name).

Both orientations are one format seen from the two sides of the inner
dimension k, so a single codec (encode, validate, decode, dump) works on the
orientation-free view; ``_LAYOUT`` maps each block type's names onto it.

Edge blocks may be ragged: streams simply contain fewer entries; the geometry
carries the full dimensions so global coordinates can be reconstructed.
Lengths are recorded only for columns where a group participates — the bitmap
is the sole membership record (no zero-length entries).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import (BoundsError, DegenerateInputError, GridLimitError,
                     MalformedBlockError)
from .matrices import (CscMatrix, CsrMatrix, TripletMatrix, canonicalize,
                       run_starts, stable_order)


MAX_GROUPS = 64  # group bitmaps are uint64


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

    def row_span(self, block_row: int, group: int) -> tuple[int, int]:
        """Global row range [lo, hi) of one A group tile; empty if off the edge."""
        lo = block_row * self.g_na * self.m_t + group * self.m_t
        return min(lo, self.m), min(lo + self.m_t, self.m)

    def col_span(self, block_col: int, group: int) -> tuple[int, int]:
        """Global column range [lo, hi) of one B group tile."""
        lo = block_col * self.g_nb * self.n_t + group * self.n_t
        return min(lo, self.n), min(lo + self.n_t, self.n)

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


def check_group_limit(**counts: int) -> None:
    """Reject a grid dimension wider than the 64-bit group bitmap."""
    for name, count in counts.items():
        if count > MAX_GROUPS:
            raise GridLimitError(
                f"{name}={count} exceeds the {MAX_GROUPS}-group limit of "
                "the 64-bit group bitmap")


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
    check_group_limit(g_na=g_na, g_nb=g_nb)
    if plan.m_t <= 0 or plan.k_t <= 0 or plan.n_t <= 0:
        raise DegenerateInputError("tile dimensions must be positive")
    t_m = math.ceil(m / (g_na * plan.m_t))
    t_k = math.ceil(k / plan.k_t)
    t_n = math.ceil(n / (g_nb * plan.n_t))
    return TilingGeometry(m=m, k=k, n=n, m_t=plan.m_t, k_t=plan.k_t,
                          n_t=plan.n_t, t_m=t_m, t_k=t_k, t_n=t_n,
                          g_na=g_na, g_nb=g_nb)


class GroupStreams(NamedTuple):
    """A block's streams, named from the inner dimension k's side.

    Per group g: ``value[g]``, ``local_idx[g]`` (group-local outer index: an
    A row or a B column) and ``lengths[g]`` (one per shared position the group
    belongs to).  Shared: ``inner_idx`` (block-local k of each non-empty
    position), its group ``bitmap`` and their length ``inner_len``.
    """

    n_groups: int
    tile: int
    value: list
    local_idx: list
    lengths: list
    inner_idx: np.ndarray
    bitmap: np.ndarray
    inner_len: int


class _GroupBlock:
    """Orientation-free behaviour shared by both block types."""

    @functools.cached_property
    def streams(self) -> GroupStreams:
        """The paper's per-group streams, read off the entry table.

        A stable sort by group puts the table's (position, group, input)
        order into each group's (k, input) stream order; each (group,
        position) run of it is one length and one bitmap bit.  Built only
        when a block is inspected (dumps, tests): the engine, the cost model
        and validation read the table.
        """
        name = _LAYOUT[type(self)].fields
        n_groups, inner_idx = (getattr(self, f) for f in (name.n_groups,
                                                          name.inner_idx))
        order = stable_order(self.entry_table[1], n_groups)
        position, group, local, value = (a[order] for a in self.entry_table)
        ends = np.flatnonzero(np.append(run_starts(group, position), True))
        runs, run_len = ends[:-1], np.diff(ends)
        bitmap = np.zeros(len(inner_idx), dtype=np.uint64)
        np.bitwise_or.at(bitmap, position[runs], np.left_shift(
            np.uint64(1), group[runs].astype(np.uint64)))
        cut = np.arange(1, n_groups)  # each later group's first entry / run
        at, run_at = np.searchsorted(group, cut), np.searchsorted(group[runs], cut)
        return GroupStreams(
            n_groups, getattr(self, name.tile), np.split(value, at),
            np.split(local, at), np.split(run_len, run_at), inner_idx, bitmap,
            getattr(self, name.inner_len))

    @property
    def nnz(self) -> int:
        return len(self.entry_table[0])


@dataclass(frozen=True, eq=False)
class RpCscBlock(_GroupBlock):
    """Row-partitioned CSC encoding of one A block.

    col_idx has one entry per non-empty block column.  entry_table holds
    every entry as ``(position, group, local row, value)`` arrays in
    (position, group, input) order, ``position`` indexing col_idx; busiest
    holds each column's longest member-group run.  The paper's per-group
    value / row_idx / col_len streams (column-major, group-local rows
    0..m_t-1) and the group_bitmap are read off the table on inspection.
    """

    g_na: int
    m_t: int
    block_row: int
    block_k: int
    col_idx: np.ndarray
    col_all_len: int
    entry_table: tuple[np.ndarray, ...]
    busiest: np.ndarray

    value = property(attrgetter("streams.value"))
    row_idx = property(attrgetter("streams.local_idx"))
    col_len = property(attrgetter("streams.lengths"))
    group_bitmap = property(attrgetter("streams.bitmap"))


@dataclass(frozen=True, eq=False)
class CpCsrBlock(_GroupBlock):
    """Column-partitioned CSR encoding of one B block (mirror over rows).

    row_idx has one entry per non-empty block row, and the table's local
    indices are group-local columns (0..n_t-1); the per-group value /
    col_idx / row_len streams and the group_bitmap are read off it.
    """

    g_nb: int
    n_t: int
    block_k: int
    block_col: int
    row_idx: np.ndarray
    row_all_len: int
    entry_table: tuple[np.ndarray, ...]
    busiest: np.ndarray

    value = property(attrgetter("streams.value"))
    col_idx = property(attrgetter("streams.local_idx"))
    row_len = property(attrgetter("streams.lengths"))
    group_bitmap = property(attrgetter("streams.bitmap"))


class _Layout(NamedTuple):
    kind: str
    coords: tuple[str, str]
    fields: GroupStreams  # each block's name for each stream


# The one place that maps each orientation's names onto GroupStreams.
_LAYOUT = {
    RpCscBlock: _Layout("rp_csc", ("block_row", "block_k"), GroupStreams(
        "g_na", "m_t", "value", "row_idx", "col_len", "col_idx",
        "group_bitmap", "col_all_len")),
    CpCsrBlock: _Layout("cp_csr", ("block_k", "block_col"), GroupStreams(
        "g_nb", "n_t", "value", "col_idx", "row_len", "row_idx",
        "group_bitmap", "row_all_len")),
}


def _encode_strip(ptr: np.ndarray, idx: np.ndarray, val: np.ndarray,
                  k_span: tuple[int, int], outer_span: tuple[int, int],
                  n_groups: int, tile: int) -> tuple[np.ndarray, int, tuple, np.ndarray]:
    """Group-partition one strip of a matrix compressed along k.

    ``ptr``/``idx``/``val`` are A's CSC or B's CSR arrays.  Entries of the k
    range whose outer index lies in ``outer_span`` land in group
    ``(idx - lo) // tile`` with group-local indices; k positions with no such
    entry are omitted from the shared stream.  One mask keeps the entries in
    input order, k ascending, and one stable sort by (position, group) makes
    the entry table, in which each (position, group) run is one group's
    entries at one position: the longest sets its position's busiest run.
    Returns the block's shared stream, its length, the table and the
    busiest runs, in the blocks' field order.
    """
    k_lo, k_hi = k_span
    lo, hi = outer_span
    first, last = ptr[k_lo], ptr[k_hi]
    inner = np.repeat(np.arange(k_hi - k_lo, dtype=np.int64),
                      np.diff(ptr[k_lo:k_hi + 1]))
    outer = idx[first:last]
    keep = (outer >= lo) & (outer < hi)
    inner, outer, vals = inner[keep], outer[keep] - lo, val[first:last][keep]
    new = run_starts(inner)  # each shared position's first entry
    inner_idx = inner[new]
    position = np.cumsum(new) - 1
    group = outer // tile
    local = outer - group * tile
    group = group.astype(np.int64, copy=False)
    order = stable_order(position * n_groups + group, len(inner_idx) * n_groups)
    table = tuple(a[order] for a in (position, group, local, vals))
    position, group = table[:2]
    starts = np.flatnonzero(run_starts(position, group))
    busiest = np.zeros(len(inner_idx), dtype=np.int64)
    np.maximum.at(busiest, position[starts], np.diff(starts, append=len(position)))
    return inner_idx, len(inner_idx), table, busiest


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


def validate_block(blk: RpCscBlock | CpCsrBlock) -> None:
    """Raise MalformedBlockError on any structural invariant violation.

    Checks the stored form, so a valid block has a valid ``streams`` view:
    every table column in range, the table in (position, group) order, and
    every shared position holding an entry (the bitmap's no-empty rule).
    """
    name = _LAYOUT[type(blk)].fields
    n_groups, tile, inner_idx, inner_len = (getattr(blk, f) for f in (
        name.n_groups, name.tile, name.inner_idx, name.inner_len))
    position, group, local, value = blk.entry_table
    if len(inner_idx) != inner_len or len(blk.busiest) != inner_len:
        raise MalformedBlockError(
            f"shared stream lengths disagree with {name.inner_len}")
    if inner_len and np.any(np.diff(inner_idx) <= 0):
        raise MalformedBlockError(f"{name.inner_idx} not strictly increasing")
    if not len(position) == len(group) == len(local) == len(value):
        raise MalformedBlockError("entry table columns differ in length")
    for col, bound, what in ((position, inner_len, "position"),
                             (group, n_groups, "group"),
                             (local, tile, name.local_idx)):
        if len(col) and (col.min() < 0 or col.max() >= bound):
            raise MalformedBlockError(f"entry table {what} outside 0..{bound - 1}")
    if np.any(np.diff(position * n_groups + group) < 0):
        raise MalformedBlockError("entry table not in (position, group) order")
    if len(np.unique(position)) != inner_len:
        raise MalformedBlockError(f"a {name.inner_idx} position holds no entry")


def decode_block(blk: RpCscBlock | CpCsrBlock,
                 geom: TilingGeometry) -> TripletMatrix:
    """Reconstruct the global-coordinate triplets of an A or a B block."""
    validate_block(blk)
    is_a = isinstance(blk, RpCscBlock)
    layout = _LAYOUT[type(blk)]
    coords = tuple(getattr(blk, c) for c in layout.coords)
    block_outer, block_k = coords if is_a else coords[::-1]
    outer_span = geom.row_span if is_a else geom.col_span
    k_lo, _ = geom.k_span(block_k)
    name = layout.fields
    position, group, local, value = blk.entry_table
    group_lo = [outer_span(block_outer, g)[0]
                for g in range(getattr(blk, name.n_groups))]
    outer = np.asarray(group_lo, dtype=np.int64)[group] + local
    kk = k_lo + np.asarray(getattr(blk, name.inner_idx), dtype=np.int64)[position]
    rows, cols = (outer, kk) if is_a else (kk, outer)
    return canonicalize(*((geom.m, geom.k) if is_a else (geom.k, geom.n)),
                        arrays=(rows, cols, value))


def dump_block(blk: RpCscBlock | CpCsrBlock) -> str:
    """Structured one-line-per-stream text dump for golden-file tests."""
    layout = _LAYOUT[type(blk)]
    name = layout.fields
    s = blk.streams
    lines = [
        f"kind={layout.kind}",
        "block=({},{})".format(*(getattr(blk, c) for c in layout.coords)),
        f"{name.inner_len}={s.inner_len}",
        f"{name.inner_idx}=" + _ints(s.inner_idx),
        f"{name.bitmap}=" + _ints(s.bitmap),
    ]
    for g in range(s.n_groups):
        lines.append(
            f"group={g} {name.lengths}=" + _ints(s.lengths[g])
            + f" {name.local_idx}=" + _ints(s.local_idx[g])
            + " value=" + _floats(s.value[g]))
    return "\n".join(lines) + "\n"


def _ints(arr) -> str:
    return ",".join(str(int(x)) for x in arr)


def _floats(arr) -> str:
    return ",".join(repr(float(x)) for x in arr)
