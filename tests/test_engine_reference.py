"""The engine's whole-array accumulations against the per-element and
per-store loops they replaced, kept here as references.

Each reference adds the same products in the same order, so results must be
bit-identical (compared as bytes, which also tells -0.0 from 0.0) and carry
the same dtypes.  The per-store ``PsumStore`` records, with their address
directories, are rebuilt here from a pass's product stream and fill starts;
the engine keeps only the grid's arrays.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import iohp.engine
from iohp.costmodel import Workload, _passes, run
from iohp.encoding import encode_cp_csr, encode_rp_csc, make_geometry
from iohp.engine import (OutputBlock, _accumulate, compute_psums, fill_grid,
                         merge_join, merge_output_blocks, sdmm_compute)
from iohp.errors import MalformedBlockError, PsumOverflowError
from iohp.matrices import CscMatrix, DenseMatrix, TripletMatrix, to_csc, to_csr
from iohp.planner import HardwareConfig, PartitionPlan
from iohp.synthetic import random_dense, random_triplets


def group_slices(blk):
    """Each shared position's ``(group, local_idx, value)`` member slices.

    Read off the block's raw streams: group g's entries fill its member
    positions (set bitmap bits, ascending) run by run, one length each.
    Slices are listed in ascending group order.
    """
    s = blk.streams
    slices = [[] for _ in range(s.inner_len)]
    for g in range(s.n_groups):
        members = [p for p in range(s.inner_len) if int(s.bitmap[p]) >> g & 1]
        lo = 0
        for p, run in zip(members, s.lengths[g].tolist(), strict=True):
            slices[p].append((g, s.local_idx[g][lo:lo + run],
                              s.value[g][lo:lo + run]))
            lo += run
        assert lo == len(s.value[g])
    return slices


def sdmm_banks_reference(a_blk, b_rows, g_nb, n_t):
    """Per-(position, group, PE-column) accumulation into (g, h) banks;
    ``b_rows[p]`` is shared position p's dense row."""
    banks = np.zeros((a_blk.g_na, g_nb, a_blk.m_t, n_t))
    macs = 0
    width = b_rows.shape[1]
    for p, members in enumerate(group_slices(a_blk)):
        brow = b_rows[p]
        nnz_brow = int(np.count_nonzero(brow))
        for g, rows_a, vals_a in members:
            macs += len(vals_a) * nnz_brow
            for h in range(g_nb):
                w_lo = h * n_t
                if w_lo >= width:
                    break
                w_hi = min(w_lo + n_t, width)
                banks[g, h][rows_a, :w_hi - w_lo] += np.outer(vals_a,
                                                              brow[w_lo:w_hi])
    return banks, macs


@dataclass(eq=False)
class PsumStore:
    """One PE's psum store at the end of a pass, rebuilt by ``store_records``.

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
    spilled: list


def fill_slots(rows, m_t, starts):
    """Each product's slot: its rank among its (fill, row) products, in
    stream order (a fill lies within one PE)."""
    fill = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(rows)))
    key = fill * m_t + rows
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    slot = np.empty(len(rows), dtype=np.int64)
    slot[order] = np.arange(len(rows)) - np.repeat(
        first, np.diff(first, append=len(rows)))
    return slot


def store_records(pe, rows, cols, vals, shape, s, capacity, starts):
    """Every PE's ``PsumStore`` record, ``records[g][h]``, from
    ``fill_grid``'s arguments and the fill starts it returned.

    A fill's psums take addresses in stream order and slots by
    ``fill_slots``; a PE's last fill is what its store holds, and every
    earlier one is flushed through ``address_map``."""
    g_na, g_nb, m_t, _ = shape
    ends = np.append(starts[1:], len(pe)).tolist()
    slot = fill_slots(rows, m_t, starts)
    fills = [[] for _ in range(g_na * g_nb)]
    for lo, hi in zip(starts.tolist(), ends):
        fills[pe[lo]].append((lo, hi))

    def record(lo, hi, width=None):
        row_len = np.bincount(rows[lo:hi], minlength=m_t)
        vc_addr = np.zeros((m_t, row_len.max() if width is None else width),
                           dtype=np.int64)
        vc_addr[rows[lo:hi], slot[lo:hi]] = np.arange(hi - lo)
        return PsumStore(m_t, s, capacity, vals[lo:hi], cols[lo:hi], vc_addr,
                         row_len, hi - lo, 0, 0, 0, [])

    held = [f[-1] if f else (0, 0) for f in fills]
    width = max(np.bincount(rows[lo:hi], minlength=m_t).max()
                for lo, hi in held)
    records = []
    for (lo, hi), flushed in zip(held, fills):
        st = record(lo, hi, width)
        st.peak_id = max((b - a for a, b in flushed), default=0)
        st.appended_total = sum(b - a for a, b in flushed)
        st.spill_events = max(len(flushed) - 1, 0)
        st.spilled = [address_map(record(a, b)) for a, b in flushed[:-1]]
        records.append(st)
    return [records[g * g_nb:(g + 1) * g_nb] for g in range(g_na)]


def psums_with_records(a_blk, b_blk, cfg=None):
    """``compute_psums``' grid and its stores' records, rebuilt from the
    ``fill_grid`` call it makes."""
    calls = []

    def recorded(*args):
        grid, starts = fill_grid(*args)
        calls.append(args + (starts,))
        return grid, starts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iohp.engine, "fill_grid", recorded)
        grid = compute_psums(a_blk, b_blk, cfg)
    (args,) = calls
    return grid, store_records(*args)


def lone_store(m_t, s, capacity, rows, cols, vals):
    """One store filled by ``fill_grid`` from a one-PE product stream."""
    args = (np.zeros(len(rows), dtype=np.int64),
            np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64), (1, 1, m_t, 1), s, capacity)
    _, starts = fill_grid(*args)  # one PE: no offsets
    return store_records(*args, starts)[0][0]


def _directory(ps):
    """Every directory entry in use: its row and address, row-major.

    Each row's addresses keep insertion order.  Only the ``row_len`` slots in
    use are read, never the whole ``m_t x s`` directory.
    """
    rows = np.repeat(np.arange(ps.m_t, dtype=np.int64), ps.row_len)
    row_start = np.cumsum(ps.row_len) - ps.row_len
    slots = np.arange(len(rows), dtype=np.int64) - row_start[rows]
    return rows, ps.vc_addr[rows, slots]


def validate_psum_store(ps):
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


def address_map(ps):
    """Accumulate one store's psums, fetched row by row in insertion order."""
    rows, addrs = _directory(ps)
    return _accumulate(rows, ps.col_idx_psum[addrs], ps.value_psum[addrs])


def dump_psum_store(ps):
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


def address_map_reference(ps):
    """Per-row stable argsort of the columns, then a run-wise reduceat."""
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


def merge_reference(parts):
    """Per-coordinate merge: fsum on every run, copy a lone entry."""
    parts = [p for p in parts if p.nnz]
    if not parts:
        return OutputBlock.empty()
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


def assemble_reference(parts, geom):
    """Offset each (m, g, n, h) output by its tile span, checking that it
    fits, and build the CSC result; coordinates must not collide."""
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
    assert not np.any(dup), "coordinate collision across disjoint blocks"
    counts = np.bincount(cols, minlength=geom.n)
    col_ptr = np.zeros(geom.n + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return CscMatrix(geom.m, geom.n, vals, rows, col_ptr)


def run_output_reference(workload, plan, cfg):
    """Address-map every store on its own, merge each (m, g, n, h) apart,
    then offset and assemble the keyed outputs."""
    a, b = workload.a, workload.b
    geom = make_geometry(plan, (a.n_rows, a.n_cols, b.n_cols),
                         (cfg.g_na, cfg.g_nb))
    parts = {}
    for m, n, k, _, _ in _passes(plan.strategy, geom):
        _, stores = psums_with_records(encode_rp_csc(a, geom, m, k),
                                       encode_cp_csr(b, geom, k, n), cfg)
        for g, row in enumerate(stores):
            for h, st in enumerate(row):
                blks = st.spilled + [address_map(st)]
                if any(blk.nnz for blk in blks):
                    parts.setdefault((m, g, n, h), []).extend(blks)
    merged = {key: merge_output_blocks(blocks) for key, blocks in parts.items()}
    return assemble_reference(merged, geom)


def shifted(blk, row, col):
    return OutputBlock(blk.row + row, blk.col + col, blk.value)


def assert_same_array(got, ref):
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def assert_same_block(got, ref):
    for field in ("row", "col", "value"):
        assert_same_array(getattr(got, field), getattr(ref, field))


def with_negative_zero(t: TripletMatrix) -> TripletMatrix:
    if not t.entries:
        return t
    r, c, _ = t.entries[0]
    return TripletMatrix(t.n_rows, t.n_cols, [(r, c, -0.0)] + t.entries[1:])


# (m, k, n, m_t, k_t, n_t, groups): ragged m/n edges, t_k > 1, several groups
CASES = [
    (7, 9, 11, 2, 4, 3, (2, 3)),
    (13, 5, 6, 3, 2, 4, (3, 2)),
    (10, 12, 10, 5, 12, 5, (2, 2)),
    (9, 17, 23, 1, 3, 2, (4, 5)),
    (6, 40, 5, 3, 20, 5, (2, 1)),  # long runs of equal (row, col) psums
    (1, 1, 1, 1, 1, 1, (1, 1)),
]


def geometry(case):
    m, k, n, m_t, k_t, n_t, groups = case
    return make_geometry(PartitionPlan(1, 1, 1, m_t, k_t, n_t, "RABE", 0),
                         (m, k, n), groups)


@pytest.mark.parametrize("values", ["int", "float"])
@pytest.mark.parametrize("case", CASES)
def test_sdmm_strip_equals_bank_loop(case, values):
    rng = np.random.default_rng(17)
    m, k, n = case[:3]
    ta = with_negative_zero(random_triplets(m, k, 0.4, rng, values))
    b = random_dense(k, n, rng)
    if values == "int":
        b = DenseMatrix(k, n, np.floor(b.data * 9))
    b.data[rng.random(b.data.shape) < 0.2] = 0.0
    b.data[rng.random(b.data.shape) < 0.1] = -0.0
    geom, a = geometry(case), to_csc(ta)
    for bm in range(geom.t_m):
        for bk in range(geom.t_k):
            a_blk = encode_rp_csc(a, geom, bm, bk)
            k_lo = geom.k_span(bk)[0]
            # each position's busiest member slice, one cycle per PE column
            busiest = sum(max(len(vals) for _, _, vals in members)
                          for members in group_slices(a_blk))
            for bn in range(geom.t_n):
                c_lo, c_hi = geom.block_cols(bn)
                b_rows = b.data[k_lo + a_blk.col_idx][:, c_lo:c_hi]
                grid = sdmm_compute(a_blk, b, geom, bn)
                banks, macs = sdmm_banks_reference(a_blk, b_rows, geom.g_nb,
                                                   geom.n_t)
                width = c_hi - c_lo
                g_na, g_nb, m_t, n_t = banks.shape
                flat = banks.transpose(0, 2, 1, 3).reshape(g_na * m_t,
                                                           g_nb * n_t)
                assert not flat[:, width:].any()
                assert_same_array(grid.strip, np.ascontiguousarray(flat[:, :width]))
                assert grid.macs == macs
                assert grid.compute_cycles == busiest * min(geom.n_t, width)


@pytest.mark.parametrize("values", ["int", "float"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("limits", [(4, 2), (10 ** 9, None)])
def test_address_map_equals_row_loop(case, values, limits):
    rng = np.random.default_rng(29)
    m, k, n = case[:3]
    ta = with_negative_zero(random_triplets(m, k, 0.4, rng, values))
    tb = with_negative_zero(random_triplets(k, n, 0.4, rng, values))
    geom, a, b = geometry(case), to_csc(ta), to_csr(tb)
    spilled = 0
    capacity, s = limits
    cfg = HardwareConfig(c_psum=capacity, s=s)
    for bm in range(geom.t_m):
        for bk in range(geom.t_k):
            for bn in range(geom.t_n):
                grid, stores = psums_with_records(
                    encode_rp_csc(a, geom, bm, bk),
                    encode_cp_csr(b, geom, bk, bn), cfg)
                stores = [st for row in stores for st in row]
                for st in stores:
                    validate_psum_store(st)
                    assert_same_block(address_map(st),
                                      address_map_reference(st))
                # the grid-wide map equals the per-store maps, side by side
                per_store = [shifted(address_map_reference(st),
                                     i // geom.g_nb * geom.m_t,
                                     i % geom.g_nb * geom.n_t)
                             for i, st in enumerate(stores)]
                assert_same_block(grid.held, merge_reference(per_store))
                spilled += grid.spilled.nnz
    if capacity == 4 and case[-1] != (1, 1):
        assert spilled  # the spill path was exercised


@pytest.mark.parametrize("strategy", ["RAF", "RBF", "RABE"])
@pytest.mark.parametrize("values", ["int", "float"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("limits", [(4, 2), (10 ** 9, None)])
def test_run_output_equals_keyed_merge(case, values, limits, strategy):
    geom, a, b = psum_operands(case, values)
    m_t, k_t, n_t, (g_na, g_nb) = case[3:]
    plan = PartitionPlan(1, 1, 1, m_t, k_t, n_t, strategy, 0)
    capacity, s = limits
    cfg = HardwareConfig(c_psum=capacity, s=s, g_na=g_na, g_nb=g_nb)
    got, stats = run(Workload(a, b), plan, cfg, "ssmm")
    ref = run_output_reference(Workload(a, b), plan, cfg)
    assert (got.n_rows, got.n_cols) == (ref.n_rows, ref.n_cols)
    for field in ("value", "row_idx", "col_ptr"):
        assert_same_array(getattr(got, field), getattr(ref, field))
    if capacity == 4 and case[-1] != (1, 1):
        assert stats.spill_events  # spilled parts went through the merge


@pytest.mark.parametrize("case", CASES)
def test_spilled_block_is_every_flush_at_its_pe(case):
    # one block, PE-major, each store's flushes in order at (g*m_t, h*n_t)
    geom, a, b = psum_operands(case, "float")
    cfg = HardwareConfig(c_psum=4, s=2)
    spilled = 0
    for bm in range(geom.t_m):
        for bk in range(geom.t_k):
            for bn in range(geom.t_n):
                grid, stores = psums_with_records(
                    encode_rp_csc(a, geom, bm, bk),
                    encode_cp_csr(b, geom, bk, bn), cfg)
                parts = [OutputBlock.empty()] + [
                    shifted(blk, g * geom.m_t, h * geom.n_t)
                    for g, row in enumerate(stores)
                    for h, st in enumerate(row) for blk in st.spilled]
                want = OutputBlock(*(np.concatenate([getattr(p, f) for p in parts])
                                     for f in ("row", "col", "value")))
                assert_same_block(grid.spilled, want)
                # a store that flushed holds the product that overflowed it
                assert grid.held.nnz or not grid.spilled.nnz
                spilled += grid.spilled.nnz
    if case[-1] != (1, 1):
        assert spilled


def test_reduceat_is_the_same_at_any_offset():
    # runs concatenated behind a pad of any length sum as they do alone
    rng = np.random.default_rng(61)
    for _ in range(200):
        runs = [rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-8, 17, n)
                for n in rng.integers(1, 300, int(rng.integers(1, 8)))]
        pad = rng.uniform(-1, 1, int(rng.integers(0, 17)))
        starts = len(pad) + np.cumsum([0] + [len(r) for r in runs[:-1]])
        got = np.add.reduceat(np.concatenate([pad] + runs), starts)
        alone = np.concatenate([np.add.reduceat(r, [0]) for r in runs])
        assert_same_array(got, alone)


def test_merge_equals_coordinate_loop():
    rng = np.random.default_rng(41)
    for _ in range(30):
        parts = []
        for _ in range(int(rng.integers(0, 6))):
            nnz = int(rng.integers(0, 12))
            coords = np.unique(rng.integers(0, 16, nnz))
            # magnitudes far apart, so that the summation order shows
            vals = rng.uniform(-1, 1, len(coords)) * 10.0 ** rng.integers(
                -8, 17, len(coords))
            vals[rng.random(len(coords)) < 0.1] = -0.0
            parts.append(OutputBlock(coords // 4, coords % 4, vals))
        assert_same_block(merge_output_blocks(parts), merge_reference(parts))


def test_lone_spilled_block_is_merged():
    # a 1x4 by 4x1 product of ones in one store of one psum: three flushes
    # of (0, 0) side by side in one part, and the held fourth product
    geom = make_geometry(PartitionPlan(1, 1, 1, 1, 4, 1, "RABE", 0),
                         (1, 4, 1), (1, 1))
    a = to_csc(TripletMatrix(1, 4, [(0, k, 1.0) for k in range(4)]))
    b = to_csr(TripletMatrix(4, 1, [(k, 0, 1.0) for k in range(4)]))
    grid = compute_psums(encode_rp_csc(a, geom, 0, 0),
                         encode_cp_csr(b, geom, 0, 0),
                         HardwareConfig(c_psum=1, s=1, g_na=1, g_nb=1))
    assert grid.spilled.row.tolist() == grid.spilled.col.tolist() == [0] * 3
    merged = merge_output_blocks([grid.spilled])
    assert list(zip(merged.row.tolist(), merged.col.tolist(),
                    merged.value.tolist())) == [(0, 0, 3.0)]
    assert_same_block(merged, merge_reference([grid.spilled]))
    assert merge_output_blocks([grid.held]) is grid.held  # already merged


def test_validate_names_the_bad_directory_entry():
    # the outer product of A entries (0, 1.0), (2, 2.0) and B entries
    # (0, 3.0), (1, 4.0), in (A entry, B entry) order
    st = lone_store(3, 4, 16, np.array([0, 0, 2, 2]), np.array([0, 1, 0, 1]),
                    np.multiply.outer([1.0, 2.0], [3.0, 4.0]).ravel())
    validate_psum_store(st)
    st.vc_addr[2, 1] = 9
    with pytest.raises(MalformedBlockError, match="row 2: address out of range"):
        validate_psum_store(st)
    st.vc_addr[2, 1] = 0
    with pytest.raises(MalformedBlockError, match="not a permutation"):
        validate_psum_store(st)
    st.row_len[1], st.row_len[2] = 5, -3
    with pytest.raises(MalformedBlockError, match="row_len outside"):
        validate_psum_store(st)


def test_validate_names_a_row_past_the_directory():
    # row lengths within 0..s that still sum to id_psum, but run row 0 past
    # the directory's two slots in use
    st = lone_store(3, 4, 16, np.array([0, 0, 2, 2]), np.array([0, 1, 0, 1]),
                    np.multiply.outer([1.0, 2.0], [3.0, 4.0]).ravel())
    st.row_len[0], st.row_len[2] = 3, 1
    with pytest.raises(MalformedBlockError,
                       match="row 0: row_len 3 exceeds the directory's 2 slots"):
        validate_psum_store(st)


class ReferenceStore:
    """A psum store that appends one product at a time.

    Before each product it overflows when the store is full or the
    product's row already holds ``s`` entries; a spill flush goes through
    ``address_map_reference``.  It exposes the fields ``dump_psum_store``
    and ``address_map_reference`` read.
    """

    def __init__(self, m_t, s, capacity, policy, tile=()):
        self.m_t, self.s, self.capacity = m_t, s, capacity
        self.policy, self.tile = policy, tile
        self.values, self.cols = [], []
        self.vc_addr = np.zeros((m_t, s), dtype=np.int64)
        self.row_len = np.zeros(m_t, dtype=np.int64)
        self.appended_total = self.peak_id = self.spill_events = 0
        self.spilled = []

    @property
    def id_psum(self):
        return len(self.values)

    @property
    def value_psum(self):
        return np.array(self.values, dtype=np.float64)

    @property
    def col_idx_psum(self):
        return np.array(self.cols, dtype=np.int64)

    def add(self, r, c, v):
        if self.id_psum >= self.capacity or self.row_len[r] >= self.s:
            if self.policy == "fail":
                raise PsumOverflowError(
                    f"psum overflow at tile {self.tile}: id_psum={self.id_psum}, "
                    f"capacity={self.capacity}, segment size={self.s}")
            flushed = address_map_reference(self)
            if flushed.nnz:
                self.spilled.append(flushed)
            self.spill_events += 1
            self.values, self.cols = [], []
            self.vc_addr.fill(0)
            self.row_len.fill(0)
        self.vc_addr[r, self.row_len[r]] = self.id_psum
        self.row_len[r] += 1
        self.values.append(v)
        self.cols.append(c)
        self.peak_id = max(self.peak_id, self.id_psum)


def compute_psums_reference(a_blk, b_blk, cfg, tile):
    """Per-(k, g, h) walk over the group slices, product by product."""
    s = cfg.s if cfg.s is not None else max(1, b_blk.n_t)
    stores = [[ReferenceStore(a_blk.m_t, s, cfg.c_psum,
                              cfg.overflow_policy, tile)
               for _ in range(b_blk.g_nb)] for _ in range(a_blk.g_na)]
    a_slices, b_slices = group_slices(a_blk), group_slices(b_blk)
    for i, j in zip(*merge_join(a_blk, b_blk)):
        for g, rows_a, vals_a in a_slices[i]:
            for h, cols_b, vals_b in b_slices[j]:
                st = stores[g][h]
                st.appended_total += len(rows_a) * len(cols_b)
                for r, va in zip(rows_a.tolist(), vals_a):
                    for c, vb in zip(cols_b.tolist(), vals_b):
                        st.add(r, c, va * vb)
    return [st for row in stores for st in row]


def assert_same_store(got, ref):
    assert dump_psum_store(got) == dump_psum_store(ref)
    assert_same_array(got.value_psum, ref.value_psum)
    assert_same_array(got.col_idx_psum, ref.col_idx_psum)
    assert len(got.spilled) == len(ref.spilled)
    for blk, ref_blk in zip(got.spilled, ref.spilled):
        assert_same_block(blk, ref_blk)
    assert ((got.peak_id, got.appended_total, got.spill_events)
            == (ref.peak_id, ref.appended_total, ref.spill_events))


def psum_operands(case, values):
    rng = np.random.default_rng(29)
    m, k, n = case[:3]
    ta = with_negative_zero(random_triplets(m, k, 0.4, rng, values))
    tb = with_negative_zero(random_triplets(k, n, 0.4, rng, values))
    return geometry(case), to_csc(ta), to_csr(tb)


@pytest.mark.parametrize("policy", ["spill", "fail"])
@pytest.mark.parametrize("values", ["int", "float"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("limits", [(4, 2), (10 ** 9, None), (1, 1)])
def test_compute_psums_equals_product_loop(case, values, limits, policy):
    geom, a, b = psum_operands(case, values)
    capacity, s = limits
    cfg = HardwareConfig(c_psum=capacity, s=s, overflow_policy=policy)
    for bm in range(geom.t_m):
        for bk in range(geom.t_k):
            for bn in range(geom.t_n):
                a_blk = encode_rp_csc(a, geom, bm, bk)
                b_blk = encode_cp_csr(b, geom, bk, bn)
                tile = (bm, bn, bk)
                try:
                    ref = compute_psums_reference(a_blk, b_blk, cfg, tile)
                except PsumOverflowError as err:
                    with pytest.raises(PsumOverflowError) as got:
                        compute_psums(a_blk, b_blk, cfg)
                    assert str(got.value) == str(err)
                    continue
                _, stores = psums_with_records(a_blk, b_blk, cfg)
                got = [st for row in stores for st in row]
                for st, ref_st in zip(got, ref, strict=True):
                    assert_same_store(st, ref_st)


def test_fail_names_the_first_overflow_in_k_g_h_order():
    # Message recorded with the serial (k, g, h) walk.  A PE-major walk would
    # raise store (0, 0)'s overflow (id_psum=4), which comes later in k.
    geom, a, b = psum_operands(CASES[0], "int")
    cfg = HardwareConfig(c_psum=4, s=2, overflow_policy="fail")
    with pytest.raises(PsumOverflowError) as err:
        compute_psums(encode_rp_csc(a, geom, 0, 0), encode_cp_csr(b, geom, 0, 0),
                      cfg)
    assert str(err.value) == ("psum overflow at tile (0, 0, 0): id_psum=3, "
                              "capacity=4, segment size=2")


@pytest.mark.parametrize("limits", [(1, 1), (3, 2), (5, 1), (7, 3), (64, 4)])
def test_append_equals_product_loop(limits):
    # arbitrary row order with repeats, over two draws: one fill of the draws
    # so far against one store that took them product by product
    rng = np.random.default_rng(53)
    capacity, s = limits
    ref = ReferenceStore(4, s, capacity, "spill")
    drawn = [np.empty(0, dtype=np.int64)] * 2 + [np.empty(0)]
    for n in (int(rng.integers(0, 40)), int(rng.integers(0, 40))):
        rows = rng.integers(0, 4, n)
        cols = rng.integers(0, 6, n)
        vals = rng.uniform(-1, 1, n)
        drawn = [np.concatenate(p) for p in zip(drawn, (rows, cols, vals))]
        st = lone_store(4, s, capacity, *drawn)
        ref.appended_total += n
        for r, c, v in zip(rows.tolist(), cols.tolist(), vals):
            ref.add(r, c, v)
        validate_psum_store(st)
        assert_same_store(st, ref)


@pytest.mark.parametrize("case", CASES)
def test_busiest_is_the_longest_member_run(case):
    geom, a, b = psum_operands(case, "float")
    blocks = [encode_rp_csc(a, geom, bm, bk)
              for bm in range(geom.t_m) for bk in range(geom.t_k)]
    blocks += [encode_cp_csr(b, geom, bk, bn)
               for bk in range(geom.t_k) for bn in range(geom.t_n)]
    for blk in blocks:
        longest = [max(len(vals) for _, _, vals in members)
                   for members in group_slices(blk)]
        assert_same_array(blk.busiest, np.array(longest, dtype=np.int64))
