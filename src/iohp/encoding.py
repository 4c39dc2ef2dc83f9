"""Group-partitioned block encodings consumed by the PE grid.

An A block covers ``g_na`` row groups of ``m_t`` rows by one ``k_t``-wide
column strip.  Its encoding holds, per group, the value / group-local row /
per-column length streams, plus shared streams over the block's non-empty
columns: the block-local column index and a bitmap of which groups touch that
column.  B is encoded the same way mirrored over rows, with ``g_nb`` column
groups of ``n_t``.

Both are one format seen from the two sides of the inner dimension k, so a
single codec (encode, validate, decode, dump) works on the orientation-free
:class:`GroupStreams`; ``_LAYOUT`` maps each block type's field names onto
them.

Edge blocks may be ragged: streams simply contain fewer entries; the geometry
carries the full dimensions so global coordinates can be reconstructed.
Lengths are recorded only for columns where a group participates — the bitmap
is the sole membership record (no zero-length entries).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (BoundsError, DegenerateInputError, GridLimitError,
                     MalformedBlockError)
from .matrices import CscMatrix, CsrMatrix, TripletMatrix, canonicalize


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

    @property
    def streams(self) -> GroupStreams:
        return GroupStreams(*(getattr(self, f) for f in _LAYOUT[type(self)].fields))

    @property
    def nnz(self) -> int:
        return sum(len(v) for v in self.value)

    @functools.cached_property
    def entry_table(self) -> tuple[np.ndarray, ...]:
        """Every entry as ``(position, group, local_idx, value)`` arrays.

        ``position`` indexes the shared inner stream; entries are in
        (position, group, stream) order.  This is the one walk over the group
        bitmap, cached because a block joins several passes.
        """
        s = self.streams
        member = [_members(s.bitmap, g) for g in range(s.n_groups)]
        position = np.repeat(np.concatenate(member), np.concatenate(s.lengths))
        group = np.repeat(np.arange(s.n_groups), [len(v) for v in s.value])
        order = np.argsort(position, kind="stable")
        return (position[order], group[order], np.concatenate(s.local_idx)[order],
                np.concatenate(s.value)[order])

    @functools.cached_property
    def busiest(self) -> np.ndarray:
        """Each shared position's longest member-group run (its busiest PE).

        Read from the entry table, where each run of equal (position, group)
        is one group's entries at one position.  Each pass reads it for its
        cycle count.
        """
        position, group, _, _ = self.entry_table
        starts = np.flatnonzero(np.diff(position * self.streams.n_groups + group,
                                        prepend=-1))  # one per (position, group)
        out = np.zeros(self.streams.inner_len, dtype=np.int64)
        np.maximum.at(out, position[starts], np.diff(starts, append=len(position)))
        return out


@dataclass(frozen=True)
class RpCscBlock(_GroupBlock):
    """Row-partitioned CSC encoding of one A block.

    value[g] / row_idx[g] / col_len[g] are per-group streams in column-major
    order; col_idx and group_bitmap have one entry per non-empty block column.
    Row indices are group-local (0..m_t-1).
    """

    g_na: int
    m_t: int
    block_row: int
    block_k: int
    value: list[np.ndarray]
    row_idx: list[np.ndarray]
    col_len: list[np.ndarray]
    col_idx: np.ndarray
    group_bitmap: np.ndarray
    col_all_len: int


@dataclass(frozen=True)
class CpCsrBlock(_GroupBlock):
    """Column-partitioned CSR encoding of one B block (mirror over rows).

    col_idx[g] holds group-local column indices (0..n_t-1); row_idx and
    group_bitmap have one entry per non-empty block row.
    """

    g_nb: int
    n_t: int
    block_k: int
    block_col: int
    value: list[np.ndarray]
    col_idx: list[np.ndarray]
    row_len: list[np.ndarray]
    row_idx: np.ndarray
    group_bitmap: np.ndarray
    row_all_len: int


class _Layout(NamedTuple):
    kind: str
    coords: tuple[str, str]
    fields: GroupStreams  # each block field name at its stream's place


# The one place that maps each orientation's field names onto GroupStreams.
_LAYOUT = {
    RpCscBlock: _Layout("rp_csc", ("block_row", "block_k"), GroupStreams(
        "g_na", "m_t", "value", "row_idx", "col_len", "col_idx",
        "group_bitmap", "col_all_len")),
    CpCsrBlock: _Layout("cp_csr", ("block_k", "block_col"), GroupStreams(
        "g_nb", "n_t", "value", "col_idx", "row_len", "row_idx",
        "group_bitmap", "row_all_len")),
}


def _members(bitmap: np.ndarray, g: int) -> np.ndarray:
    """Shared positions whose bitmap has group g's bit set."""
    bits = np.asarray(bitmap, dtype=np.uint64)
    return np.flatnonzero((bits >> np.uint64(g)) & np.uint64(1))


def _encode_strip(ptr: np.ndarray, idx: np.ndarray, val: np.ndarray,
                  k_span: tuple[int, int], outer_span: tuple[int, int],
                  n_groups: int, tile: int) -> GroupStreams:
    """Group-partition one strip of a matrix compressed along k.

    ``ptr``/``idx``/``val`` are A's CSC or B's CSR arrays.  Entries of the k
    range whose outer index lies in ``outer_span`` land in group
    ``(idx - lo) // tile`` with group-local indices; k positions with no such
    entry are omitted from the shared streams.  One mask and one stable sort
    by group keep every group's entries in (k, outer) order.
    """
    k_lo, k_hi = k_span
    lo, hi = outer_span
    first, last = ptr[k_lo], ptr[k_hi]
    inner = np.repeat(np.arange(k_hi - k_lo, dtype=np.int64),
                      np.diff(ptr[k_lo:k_hi + 1]))
    outer = idx[first:last]
    keep = (outer >= lo) & (outer < hi)
    inner, outer, vals = inner[keep], outer[keep] - lo, val[first:last][keep]
    group = outer // tile
    order = np.argsort(group, kind="stable")
    local = (outer - group * tile)[order]
    inner, group, vals = inner[order], group[order], vals[order]
    # one length per (group, k) run, and each run sets one bitmap bit
    _, runs, run_len = np.unique(group * (k_hi - k_lo) + inner,
                                 return_index=True, return_counts=True)
    inner_idx = np.unique(inner)
    bitmap = np.zeros(len(inner_idx), dtype=np.uint64)
    np.bitwise_or.at(bitmap, np.searchsorted(inner_idx, inner[runs]),
                     np.left_shift(np.uint64(1), group[runs].astype(np.uint64)))
    at = np.searchsorted(group, np.arange(n_groups + 1))
    run_at = np.searchsorted(group[runs], np.arange(n_groups + 1))
    return GroupStreams(
        n_groups, tile,
        value=[vals[at[g]:at[g + 1]] for g in range(n_groups)],
        local_idx=[local[at[g]:at[g + 1]] for g in range(n_groups)],
        lengths=[run_len[run_at[g]:run_at[g + 1]] for g in range(n_groups)],
        inner_idx=inner_idx, bitmap=bitmap, inner_len=len(inner_idx))


def _block(cls, streams: GroupStreams, **coords):
    return cls(**dict(zip(_LAYOUT[cls].fields, streams)), **coords)


def encode_rp_csc(a: CscMatrix, geom: TilingGeometry,
                  block_row: int, block_k: int) -> RpCscBlock:
    """Encode the (block_row, block_k) tile of A, grouped over rows."""
    if not (0 <= block_row < geom.t_m and 0 <= block_k < geom.t_k):
        raise BoundsError(
            f"block ({block_row},{block_k}) outside {geom.t_m}x{geom.t_k} grid")
    streams = _encode_strip(a.col_ptr, a.row_idx, a.value,
                            geom.k_span(block_k), geom.block_rows(block_row),
                            geom.g_na, geom.m_t)
    return _block(RpCscBlock, streams, block_row=block_row, block_k=block_k)


def encode_cp_csr(b: CsrMatrix, geom: TilingGeometry,
                  block_k: int, block_col: int) -> CpCsrBlock:
    """Encode the (block_k, block_col) tile of B, grouped over columns."""
    if not (0 <= block_k < geom.t_k and 0 <= block_col < geom.t_n):
        raise BoundsError(
            f"block ({block_k},{block_col}) outside {geom.t_k}x{geom.t_n} grid")
    streams = _encode_strip(b.row_ptr, b.col_idx, b.value,
                            geom.k_span(block_k), geom.block_cols(block_col),
                            geom.g_nb, geom.n_t)
    return _block(CpCsrBlock, streams, block_k=block_k, block_col=block_col)


def validate_block(blk: RpCscBlock | CpCsrBlock) -> None:
    """Raise MalformedBlockError on any structural invariant violation."""
    s = blk.streams
    name = _LAYOUT[type(blk)].fields
    if len(s.inner_idx) != len(s.bitmap) or len(s.inner_idx) != s.inner_len:
        raise MalformedBlockError(
            f"shared stream lengths disagree with {name.inner_len}")
    if s.inner_len and np.any(np.diff(s.inner_idx) <= 0):
        raise MalformedBlockError(f"{name.inner_idx} not strictly increasing")
    for g in range(s.n_groups):
        if int(np.sum(s.lengths[g])) != len(s.value[g]):
            raise MalformedBlockError(
                f"group {g}: {name.lengths} sum != stream length")
        if len(s.value[g]) != len(s.local_idx[g]):
            raise MalformedBlockError(
                f"group {g}: value/{name.local_idx} length mismatch")
        if len(_members(s.bitmap, g)) != len(s.lengths[g]):
            raise MalformedBlockError(
                f"group {g}: bitmap/{name.lengths} count mismatch")
        if len(s.local_idx[g]) and int(s.local_idx[g].max()) >= s.tile:
            raise MalformedBlockError(
                f"group {g}: {name.local_idx} entry >= {name.tile}")


def decode_block(blk: RpCscBlock | CpCsrBlock,
                 geom: TilingGeometry) -> TripletMatrix:
    """Reconstruct the global-coordinate triplets of an A or a B block."""
    validate_block(blk)
    is_a = isinstance(blk, RpCscBlock)
    coords = tuple(getattr(blk, c) for c in _LAYOUT[type(blk)].coords)
    block_outer, block_k = coords if is_a else coords[::-1]
    outer_span = geom.row_span if is_a else geom.col_span
    k_lo, _ = geom.k_span(block_k)
    position, group, local, value = blk.entry_table
    group_lo = [outer_span(block_outer, g)[0] for g in range(len(blk.value))]
    outer = np.asarray(group_lo, dtype=np.int64)[group] + local
    kk = k_lo + np.asarray(blk.streams.inner_idx, dtype=np.int64)[position]
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


# per-orientation names kept for existing callers
validate_rp_csc = validate_cp_csr = validate_block
decode_rp_csc = decode_cp_csr = decode_block
dump_rp_csc = dump_cp_csr = dump_block


def _ints(arr) -> str:
    return ",".join(str(int(x)) for x in arr)


def _floats(arr) -> str:
    return ",".join(repr(float(x)) for x in arr)
