"""Seeded inputs, operations and correctness checks of the benchmark workloads.

Every input is generated here from the seed and handed to iohp only as files
(CLI workloads) or as ``TripletMatrix`` objects (the batch workload).  The
expected results come from this file's own numpy products, never from iohp.

A workload's ``ops()`` is one pass over its distinct inputs; the modelled
numbers of a pass (cycles, DRAM bytes) are a pure function of the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import iohp.cli
import iohp.costmodel
import iohp.matrices
import iohp.planner

RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Coo:
    """Coordinate matrix with unique, row-major sorted coordinates."""

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


@dataclass(frozen=True)
class Outcome:
    """What the checks of one op found; ``why`` is empty when the op passed."""

    why: str
    cycles: int = 0
    dram_bytes: float = 0.0
    macs: int = 0
    spills: int = 0

    @property
    def ok(self) -> bool:
        return not self.why

    @property
    def model(self) -> tuple:
        return (self.cycles, self.dram_bytes, self.macs, self.spills)


def random_coo(rng, n_rows: int, n_cols: int, density: float,
               values: str = "float") -> Coo:
    """Uniform-random distinct coordinates; ``int`` values are 1..9."""
    cells = n_rows * n_cols
    nnz = min(cells, round(density * cells))
    flat = np.sort(rng.choice(cells, size=nnz, replace=False))
    if values == "int":
        vals = rng.integers(1, 10, size=nnz).astype(np.float64)
    else:
        vals = rng.uniform(-1.0, 1.0, size=nnz)
    return Coo(n_rows, n_cols, flat // n_cols, flat % n_cols, vals)


def mac_law(a: Coo, b_row_nnz: np.ndarray) -> int:
    """Products of the nonzero-product optimum: nnz(A col x) * nnz(B row x)."""
    return int(np.bincount(a.cols, minlength=a.n_cols) @ b_row_nnz)


def row_nnz(d: np.ndarray) -> np.ndarray:
    return np.count_nonzero(d, axis=1)


def spgemm(a: Coo, b: Coo) -> tuple[np.ndarray, np.ndarray]:
    """Sparse product as (sorted linear index row*n+col, summed values)."""
    order = np.argsort(b.rows, kind="stable")
    b_rows, b_cols, b_vals = b.rows[order], b.cols[order], b.vals[order]
    ptr = np.searchsorted(b_rows, np.arange(b.n_rows + 1))
    count = ptr[a.cols + 1] - ptr[a.cols]
    a_idx = np.repeat(np.arange(len(a.vals)), count)
    first = np.cumsum(count) - count
    b_idx = np.repeat(ptr[a.cols] - first, count) + np.arange(int(count.sum()))
    lin = a.rows[a_idx] * b.n_cols + b_cols[b_idx]
    keys, inverse = np.unique(lin, return_inverse=True)
    return keys, np.bincount(inverse, weights=a.vals[a_idx] * b_vals[b_idx],
                             minlength=len(keys))


def spmm_dense(a: Coo, d: np.ndarray) -> np.ndarray:
    """Sparse times dense, one column of the result at a time."""
    out = np.empty((a.n_rows, d.shape[1]))
    for j in range(d.shape[1]):
        out[:, j] = np.bincount(a.rows, weights=a.vals * d[a.cols, j],
                                minlength=a.n_rows)
    return out


def same_sparse(got_lin, got_val, want_lin, want_val, exact: bool) -> str:
    """Compare two sparse results coordinate-wise; absent entries are 0."""
    if len(np.unique(got_lin)) != len(got_lin):
        return "result stores a coordinate twice"
    keys = np.union1d(got_lin, want_lin)
    got = np.zeros(len(keys))
    want = np.zeros(len(keys))
    got[np.searchsorted(keys, got_lin)] = got_val
    want[np.searchsorted(keys, want_lin)] = want_val
    return same_dense(got, want, exact)


def same_dense(got: np.ndarray, want: np.ndarray, exact: bool) -> str:
    if got.shape != want.shape:
        return f"result shape {got.shape}, expected {want.shape}"
    if exact:
        ok = np.array_equal(got, want)
    else:
        ok = np.allclose(got, want, rtol=RTOL, atol=ATOL)
    return "" if ok else "result disagrees with the dense oracle"


def write_mtx(path: str, m: Coo) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{m.n_rows} {m.n_cols} {len(m.vals)}\n")
        f.write("".join(f"{r + 1} {c + 1} {v!r}\n" for r, c, v in
                        zip(m.rows.tolist(), m.cols.tolist(), m.vals.tolist())))


def write_csv(path: str, d: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("".join(",".join(map(repr, row)) + "\n" for row in d.tolist()))


def read_mtx(path: str) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="ascii") as f:
        lines = [ln for ln in f.read().splitlines() if ln and ln[0] != "%"]
    n_rows, n_cols, nnz = (int(t) for t in lines[0].split())
    body = np.array(" ".join(lines[1:]).split(), dtype=np.float64)
    body = body.reshape(nnz, 3)
    return (n_rows, n_cols, body[:, 0].astype(np.int64) - 1,
            body[:, 1].astype(np.int64) - 1, body[:, 2])


def read_text_report(path: str) -> tuple[dict, list[dict]]:
    """``--report-format text``: a header chunk, then one chunk per product."""
    with open(path, "r", encoding="ascii") as f:
        chunks = [c for c in f.read().split("\n\n") if c.strip()]
    parsed = [dict(ln.split("=", 1) for ln in c.splitlines() if "=" in ln)
              for c in chunks]
    return parsed[0], parsed[1:]


def report_outcome(rows: list[dict], expected_macs: list[int]) -> Outcome:
    """Modelled numbers of a text report, with the MAC law checked per row."""
    if len(rows) != len(expected_macs):
        return Outcome(f"report has {len(rows)} products, "
                       f"expected {len(expected_macs)}")
    for row, law in zip(rows, expected_macs):
        if int(row["macs"]) != law:
            return Outcome(f"{row['workload']}: macs {row['macs']} != "
                           f"MAC law {law}")
    return Outcome(
        "",
        cycles=sum(int(r["total_cycles"]) for r in rows),
        dram_bytes=sum(float(r[k]) for r in rows
                       for k in ("bytes_A", "bytes_B", "bytes_spill", "bytes_C")),
        macs=sum(int(r["macs"]) for r in rows),
        spills=sum(int(r["spill_events"]) for r in rows))


class CliWorkload:
    """One ``iohp`` command per op, run in-process through ``iohp.cli.main``."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def ops(self) -> list:
        return [0]

    def warmup_ops(self) -> list:
        return [0]

    def execute(self, op):
        return iohp.cli.main(self.argv)

    def check(self, op, rc) -> Outcome:
        """Check the outputs, then delete them so that no later op can pass
        on a stale file."""
        try:
            if rc != 0:
                return Outcome(f"iohp exited with {rc}")
            return self.check_outputs()
        finally:
            for name in self.outputs:
                if os.path.exists(self.path(name)):
                    os.remove(self.path(name))


class GcnCora(CliWorkload):
    """``iohp gcn`` on a Cora-sized graph: the SDMM dense-bank path."""

    name = "gcn_cora"
    default_seed = 42
    outputs = ("h2.csv", "gcn.txt")

    def __init__(self, workdir: str, small: bool = False):
        super().__init__(workdir)
        self.nodes, self.features = (677, 358) if small else (2708, 1433)
        self.hidden, self.classes = 16, 7
        self.argv = ["gcn", "--a", self.path("a.mtx"), "--x", self.path("x.mtx"),
                     "--w1", self.path("w1.csv"), "--w2", self.path("w2.csv"),
                     "--out", self.path("h2.csv"), "--report",
                     self.path("gcn.txt"), "--report-format", "text"]

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.a = random_coo(rng, self.nodes, self.nodes, 0.0014)
        self.x = random_coo(rng, self.nodes, self.features, 0.0127)
        self.w1 = rng.uniform(-1.0, 1.0, (self.features, self.hidden))
        self.w2 = rng.uniform(-1.0, 1.0, (self.hidden, self.classes))
        write_mtx(self.path("a.mtx"), self.a)
        write_mtx(self.path("x.mtx"), self.x)
        write_csv(self.path("w1.csv"), self.w1)
        write_csv(self.path("w2.csv"), self.w2)

    def oracle(self) -> None:
        """A((A(X W1)) W2), and the MAC law of each of the four products."""
        p1 = spmm_dense(self.x, self.w1)
        p2 = spmm_dense(self.a, p1)
        p3 = p2 @ self.w2
        self.want = spmm_dense(self.a, p3)
        self.macs = [
            mac_law(self.x, row_nnz(self.w1)),
            mac_law(self.a, row_nnz(p1)),
            int(np.count_nonzero(p2, axis=0) @ row_nnz(self.w2)),
            mac_law(self.a, row_nnz(p3)),
        ]

    def check_outputs(self) -> Outcome:
        header, rows = read_text_report(self.path("gcn.txt"))
        if header.get("oracle_check") != "pass":
            return Outcome("iohp reports its oracle check failed")
        got = np.loadtxt(self.path("h2.csv"), delimiter=",", ndmin=2)
        why = same_dense(got, self.want, exact=False)
        return Outcome(why) if why else report_outcome(rows, self.macs)


class Ssmm2kUniform(CliWorkload):
    """``iohp spmm --mode ssmm`` on two 2000x2000 uniform 0.2 % matrices."""

    name = "ssmm_2k_uniform"
    default_seed = 7
    outputs = ("c.mtx", "spmm.txt")

    def __init__(self, workdir: str, small: bool = False):
        super().__init__(workdir)
        self.dim = 500 if small else 2000
        self.argv = ["spmm", "--a", self.path("a.mtx"), "--b", self.path("b.mtx"),
                     "--mode", "ssmm", "--out", self.path("c.mtx"),
                     "--report", self.path("spmm.txt"), "--report-format", "text"]

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.a = random_coo(rng, self.dim, self.dim, 0.002)
        self.b = random_coo(rng, self.dim, self.dim, 0.002)
        write_mtx(self.path("a.mtx"), self.a)
        write_mtx(self.path("b.mtx"), self.b)

    def oracle(self) -> None:
        self.want = spgemm(self.a, self.b)
        self.macs = [mac_law(self.a, np.bincount(self.b.rows,
                                                 minlength=self.dim))]

    def check_outputs(self) -> Outcome:
        _, rows = read_text_report(self.path("spmm.txt"))
        n_rows, n_cols, r, c, v = read_mtx(self.path("c.mtx"))
        if (n_rows, n_cols) != (self.dim, self.dim):
            return Outcome(f"result is {n_rows}x{n_cols}")
        order = np.argsort(r * n_cols + c)
        why = same_sparse((r * n_cols + c)[order], v[order], *self.want,
                          exact=False)
        return Outcome(why) if why else report_outcome(rows, self.macs)


class SsmmSmallBatch:
    """A stream of small SSMM products through plan_partition -> run.

    Instances cover the ranges of the suite's randomized acceptance test:
    dims 1..256, density 0.1..10 % (log-uniform), half int and half float
    values.  Each of m, k, n and log-density is stratified: instance i draws
    from one of ``count`` equal strata, and the strata are paired by a fixed
    design, so every seed carries the same mix of sizes and only the draws
    inside each stratum, the coordinates and the values change with it: the
    modelled totals of a pass then agree within a few percent across seeds.
    """

    name = "ssmm_small_batch"
    default_seed = 2024
    design_seed = 0x10A9

    def __init__(self, workdir: str, small: bool = False):
        del workdir
        self.count = 24 if small else 320
        self.cfg = iohp.planner.HardwareConfig()

    def prepare(self, seed: int) -> None:
        design = np.random.default_rng(self.design_seed)
        strata = [design.permutation(self.count) for _ in range(4)]
        is_int = design.permutation(self.count) % 2 == 0
        rng = np.random.default_rng(seed)
        q = [(s + rng.random(self.count)) / self.count for s in strata]
        dims = [1 + np.minimum((qi * 256).astype(np.int64), 255) for qi in q[:3]]
        density = 10.0 ** (-3.0 + 2.0 * q[3])
        self.instances = []
        for i in range(self.count):
            m, k, n = (int(d[i]) for d in dims)
            kind = "int" if is_int[i] else "float"
            a = random_coo(rng, m, k, float(density[i]), kind)
            b = random_coo(rng, k, n, float(density[i]), kind)
            self.instances.append((a, b, kind, triplets(a), triplets(b)))
        self.order = rng.permutation(self.count).tolist()

    def oracle(self) -> None:
        self.want = [(spgemm(a, b), mac_law(a, np.bincount(b.rows,
                                                           minlength=b.n_rows)))
                     for a, b, *_ in self.instances]

    def ops(self) -> list:
        return self.order

    def warmup_ops(self) -> list:
        """Ten instances around the median product count: they take the
        spill path, and set-up time does not hang on the largest draws."""
        by_macs = sorted(range(self.count), key=lambda i: (self.want[i][1], i))
        mid = self.count // 2
        return by_macs[max(0, mid - 5):mid + 5]

    def execute(self, i: int):
        _, _, _, ta, tb = self.instances[i]
        wl = iohp.costmodel.Workload(iohp.matrices.to_csc(ta),
                                     iohp.matrices.to_csr(tb), f"inst{i}")
        plan = iohp.planner.plan_partition(self.cfg, wl.spec(self.cfg))
        return iohp.costmodel.run(wl, plan, self.cfg, "ssmm")

    def check(self, i: int, output) -> Outcome:
        result, stats = output
        a, b, kind, _, _ = self.instances[i]
        (want_lin, want_val), law = self.want[i]
        if (result.n_rows, result.n_cols) != (a.n_rows, b.n_cols):
            return Outcome(f"inst{i}: result is {result.n_rows}x{result.n_cols}")
        cols = np.repeat(np.arange(result.n_cols), np.diff(result.col_ptr))
        lin = result.row_idx * result.n_cols + cols
        order = np.argsort(lin)
        why = same_sparse(lin[order], result.value[order], want_lin, want_val,
                          exact=kind == "int")
        if why:
            return Outcome(f"inst{i}: {why}")
        if stats.achieved_macs != law:
            return Outcome(f"inst{i}: macs {stats.achieved_macs} != MAC law {law}")
        d = stats.dram
        bits = d.bits_a_read + d.bits_b_read + d.bits_psum_spill + d.bits_c_write
        return Outcome("", cycles=stats.total_cycles, dram_bytes=bits / 8,
                       macs=stats.achieved_macs, spills=stats.spill_events)


def triplets(m: Coo):
    return iohp.matrices.TripletMatrix(
        m.n_rows, m.n_cols,
        list(zip(m.rows.tolist(), m.cols.tolist(), m.vals.tolist())))


WORKLOADS = {w.name: w for w in (GcnCora, Ssmm2kUniform, SsmmSmallBatch)}
