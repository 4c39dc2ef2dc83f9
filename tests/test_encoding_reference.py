"""The paper's per-group block streams, read off a block's entry table.

A block stores only its shared index stream, entry table and busiest runs.
The references below rebuild what the model does not keep: the per-group
value / local index / length streams and the group bitmap (``streams``), the
structural checks on a stored block (``validate``), a block's global
triplets (``decode``) and the one-line-per-stream text dump (``dump``) that
golden tests compare byte for byte.  Both orientations are one format seen
from the two sides of k; ``NAMES`` gives each block type's names.
"""

from typing import NamedTuple

import numpy as np

from iohp.encoding import CpCsrBlock, RpCscBlock
from iohp.errors import MalformedBlockError
from iohp.matrices import canonicalize, run_starts, stable_order


class Streams(NamedTuple):
    """A block's streams, named from the inner dimension k's side.

    Per group g: ``value[g]``, ``local_idx[g]`` (group-local outer index: an
    A row or a B column) and ``lengths[g]`` (one per shared position the group
    belongs to).  Shared: ``inner_idx`` (block-local k of each non-empty
    position), its group ``bitmap`` and their length ``inner_len``.
    """

    n_groups: int
    value: list
    local_idx: list
    lengths: list
    inner_idx: np.ndarray
    bitmap: np.ndarray
    inner_len: int


class Names(NamedTuple):
    kind: str
    coords: tuple[str, str]
    n_groups: str
    tile: str
    inner_idx: str
    inner_len: str
    local_idx: str
    lengths: str


NAMES = {
    RpCscBlock: Names("rp_csc", ("block_row", "block_k"), "g_na", "m_t",
                      "col_idx", "col_all_len", "row_idx", "col_len"),
    CpCsrBlock: Names("cp_csr", ("block_k", "block_col"), "g_nb", "n_t",
                      "row_idx", "row_all_len", "col_idx", "row_len"),
}


def row_span(geom, block_row, group):
    """Global row range [lo, hi) of one A group tile; empty if off the edge."""
    lo = (block_row * geom.g_na + group) * geom.m_t
    return min(lo, geom.m), min(lo + geom.m_t, geom.m)


def col_span(geom, block_col, group):
    """Global column range [lo, hi) of one B group tile."""
    lo = (block_col * geom.g_nb + group) * geom.n_t
    return min(lo, geom.n), min(lo + geom.n_t, geom.n)


def streams(blk) -> Streams:
    """The per-group streams and bitmap of a block of either orientation.

    A stable sort by group puts the table's (position, group, input) order
    into each group's (k, input) stream order; each (group, position) run of
    it is one length and one bitmap bit.
    """
    name = NAMES[type(blk)]
    n_groups, inner_idx = getattr(blk, name.n_groups), getattr(blk, name.inner_idx)
    order = stable_order(blk.entry_table[1], n_groups)
    position, group, local, value = (a[order] for a in blk.entry_table)
    ends = np.flatnonzero(np.append(run_starts(group, position), True))
    runs, run_len = ends[:-1], np.diff(ends)
    bitmap = np.zeros(len(inner_idx), dtype=np.uint64)
    np.bitwise_or.at(bitmap, position[runs], np.left_shift(
        np.uint64(1), group[runs].astype(np.uint64)))
    cut = np.arange(1, n_groups)  # each later group's first entry / run
    at, run_at = np.searchsorted(group, cut), np.searchsorted(group[runs], cut)
    return Streams(n_groups, np.split(value, at), np.split(local, at),
                   np.split(run_len, run_at), inner_idx, bitmap, len(inner_idx))


def group_slices(blk):
    """Each shared position's ``(group, local_idx, value)`` member slices.

    Read off the block's streams: group g's entries fill its member
    positions (set bitmap bits, ascending) run by run, one length each.
    Slices are listed in ascending group order.
    """
    s = streams(blk)
    slices = [[] for _ in range(s.inner_len)]
    for g in range(s.n_groups):
        members = [p for p in range(s.inner_len) if int(s.bitmap[p]) >> g & 1]
        lo = 0
        for p, run in zip(members, s.lengths[g].tolist(), strict=True):
            slices[p].append((g, s.local_idx[g][lo:lo + run],
                              s.value[g][lo:lo + run]))
            lo += run
        assert lo == len(s.value[g]) == len(s.local_idx[g])
    return slices


def validate(blk) -> None:
    """Raise MalformedBlockError on any structural invariant violation.

    Checks the stored form, so a valid block has valid ``streams``: every
    table column in range, the table in (position, group) order, and every
    shared position holding an entry (the bitmap's no-empty rule).
    """
    name = NAMES[type(blk)]
    n_groups, tile, inner_idx = (getattr(blk, f) for f in (
        name.n_groups, name.tile, name.inner_idx))
    inner_len = len(inner_idx)
    position, group, local, value = blk.entry_table
    if len(blk.busiest) != inner_len:
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


def decode(blk, geom):
    """The global-coordinate triplets of a validated A or B block."""
    validate(blk)
    position, group, local, value = blk.entry_table
    k_lo = geom.k_span(blk.block_k)[0]
    if isinstance(blk, RpCscBlock):
        rows = geom.block_rows(blk.block_row)[0] + group * blk.m_t + local
        return canonicalize(geom.m, geom.k,
                            arrays=(rows, k_lo + blk.col_idx[position], value))
    cols = geom.block_cols(blk.block_col)[0] + group * blk.n_t + local
    return canonicalize(geom.k, geom.n,
                        arrays=(k_lo + blk.row_idx[position], cols, value))


def dump(blk) -> str:
    """Structured one-line-per-stream text dump for golden-file tests."""
    name = NAMES[type(blk)]
    s = streams(blk)

    def ints(arr):
        return ",".join(str(int(x)) for x in arr)

    lines = [
        f"kind={name.kind}",
        "block=({},{})".format(*(getattr(blk, c) for c in name.coords)),
        f"{name.inner_len}={s.inner_len}",
        f"{name.inner_idx}=" + ints(s.inner_idx),
        "group_bitmap=" + ints(s.bitmap),
    ]
    for g in range(s.n_groups):
        lines.append(
            f"group={g} {name.lengths}=" + ints(s.lengths[g])
            + f" {name.local_idx}=" + ints(s.local_idx[g])
            + " value=" + ",".join(repr(float(x)) for x in s.value[g]))
    return "\n".join(lines) + "\n"
