"""Command-line harness: spmm, plan, sim, gcn, and sweep subcommands.

All commands are deterministic under fixed seeds and inputs; reports carry
no timestamps, so re-runs are byte-identical.  Hardware parameters come from
a flat key=value config file (defaults: 8x8 grid at 800 MHz, 2K-entry input
buffers, 256-entry psum store, r_x 0.75).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .costmodel import CSV_COLUMNS, SimStats, Workload, run
from .engine import MODE_SDMM, MODE_SSMM, EngineConfig
from .errors import MatrixFormatError
from .matrices import (DenseMatrix, TripletMatrix, dense_matmul,
                       load_dense_csv, load_matrix_market, to_csc, to_csr,
                       to_dense, to_triplets, write_dense_csv,
                       write_matrix_market)
from .planner import (HardwareConfig, PartitionPlan, WorkloadSpec,
                      plan_partition)
from .synthetic import random_dense, random_triplets

DEFAULT_SDMM_THRESHOLD = 0.25


class CommandError(Exception):
    """Failure inside a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class GcnWorkload:
    """Two-layer GCN operands: adjacency, features, and dense weights."""

    a: TripletMatrix
    x: TripletMatrix
    w1: DenseMatrix
    w2: DenseMatrix

    def validate(self) -> None:
        if self.a.n_rows != self.a.n_cols or self.a.n_cols != self.x.n_rows:
            raise CommandError("parse", "A must be square and conform with X")
        if self.x.n_cols != self.w1.n_rows:
            raise CommandError("step1_xw1", "X columns != W1 rows")
        if self.w1.n_cols != self.w2.n_rows:
            raise CommandError("step3_h1w2", "W1 columns != W2 rows")


def load_config(path: str | None) -> HardwareConfig:
    """Parse the flat key=value hardware config file."""
    if path is None:
        return HardwareConfig()
    int_keys = {"c_a", "c_b", "c_psum", "g_na", "g_nb",
                "bits_value", "bits_index", "bits_len"}
    float_keys = {"r_x", "freq_hz"}
    kwargs = {}
    with open(path, "r", encoding="ascii") as f:
        for i, line in enumerate(f, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, val = text.partition("=")
            key = key.strip().lower()
            val = val.strip()
            if not sep:
                raise MatrixFormatError(f"line {i}: expected key=value")
            if key in int_keys:
                kwargs[key] = int(val)
            elif key in float_keys:
                kwargs[key] = float(val)
            else:
                raise MatrixFormatError(f"line {i}: unknown config key {key!r}")
    return HardwareConfig(**kwargs)


def _load_sparse(path: str, stage: str):
    try:
        return load_matrix_market(path)
    except OSError as e:
        raise CommandError(stage, str(e)) from e
    except ValueError as e:
        raise CommandError(stage, f"{path}: {e}") from e


def _resolve_mode(requested: str, b_triplets, threshold: float) -> str:
    if requested != "auto":
        return requested
    density = b_triplets.nnz / (b_triplets.n_rows * b_triplets.n_cols)
    return MODE_SDMM if density > threshold else MODE_SSMM


def _report_lines(rows: list[tuple[str, SimStats]], fmt: str,
                  header_info: dict) -> str:
    if fmt == "text":
        chunks = ["".join(f"{k}={v}\n" for k, v in header_info.items())]
        chunks += [stats.to_text(label) for label, stats in rows]
        return "\n".join(chunks)
    lines = [f"# {k}={v}" for k, v in header_info.items()]
    lines.append(",".join(CSV_COLUMNS))
    lines += [stats.csv_row(label) for label, stats in rows]
    return "\n".join(lines) + "\n"


def _write(path: str | None, content: str) -> None:
    if path is None:
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="ascii") as f:
            f.write(content)


def _run_one(a_trip, b_trip, mode: str, cfg: HardwareConfig, policy: str,
             label: str, plan_file: str | None = None):
    """Plan (or load a plan record) and execute one product."""
    a = to_csc(a_trip)
    if mode == MODE_SDMM:
        workload = Workload(a, to_dense(b_trip), label)
        plan_cfg = cfg.sdmm_variant()
    else:
        workload = Workload(a, to_csr(b_trip), label)
        plan_cfg = cfg
    try:
        if plan_file:
            with open(plan_file, "r", encoding="ascii") as f:
                plan = PartitionPlan.from_text(f.read())
        else:
            plan = plan_partition(plan_cfg, workload.spec(plan_cfg))
    except (ValueError, KeyError, OSError) as e:
        raise CommandError("plan", str(e)) from e
    engine_cfg = EngineConfig(psum_capacity=cfg.c_psum, overflow_policy=policy)
    try:
        result, stats = run(workload, plan, cfg, mode, engine_cfg)
    except Exception as e:
        raise CommandError("compute", str(e)) from e
    return result, stats, plan


def cmd_spmm(args) -> int:
    """``spmm`` and ``sim``: ``sim`` is ``spmm`` without ``--out``."""
    cfg = load_config(args.config)
    a_trip = _load_sparse(args.a, "parse")
    b_trip = _load_sparse(args.b, "parse")
    if a_trip.n_cols != b_trip.n_rows:
        raise CommandError("parse", "dimension mismatch: "
                           f"A is {a_trip.n_rows}x{a_trip.n_cols}, "
                           f"B is {b_trip.n_rows}x{b_trip.n_cols}")
    mode = _resolve_mode(args.mode, b_trip, args.sdmm_threshold)
    result, stats, plan = _run_one(a_trip, b_trip, mode, cfg, args.policy,
                                   args.a, args.plan)
    if args.out:
        if mode == MODE_SSMM:
            write_matrix_market(result, args.out)
        else:
            write_dense_csv(result, args.out)
    info = {"command": args.command, "requested_mode": args.mode,
            "resolved_mode": mode, "auto_threshold": args.sdmm_threshold,
            "predicted_dram_bits": plan.predicted_dram}
    _write(args.report, _report_lines([(args.a, stats)], args.report_format,
                                      info))
    return 0


def cmd_plan(args) -> int:
    cfg = load_config(args.config)
    plan_cfg = cfg.sdmm_variant() if args.mode == MODE_SDMM else cfg
    if args.a:
        a_trip = _load_sparse(args.a, "parse")
        if args.b:
            b_trip = _load_sparse(args.b, "parse")
            spec = WorkloadSpec.from_counts(
                a_trip.n_rows, a_trip.n_cols, b_trip.n_cols, a_trip.nnz,
                b_trip.nnz, plan_cfg, b_dense=args.mode == MODE_SDMM)
        else:
            raise CommandError("parse", "--a requires --b")
    else:
        if None in (args.m, args.k, args.n, args.da, args.db):
            raise CommandError("parse",
                               "need --a/--b files or all of --m --k --n --da --db")
        spec = WorkloadSpec.from_dims(args.m, args.k, args.n, args.da,
                                      args.db, plan_cfg,
                                      b_dense=args.mode == MODE_SDMM)
    try:
        plan = plan_partition(plan_cfg, spec)
    except ValueError as e:
        raise CommandError("plan", str(e)) from e
    _write(args.report, plan.to_text())
    return 0


def cmd_gcn(args) -> int:
    cfg = load_config(args.config)
    if args.synthetic:
        rng = np.random.default_rng(args.seed)
        a_trip = random_triplets(args.nodes, args.nodes, args.da, rng)
        x_trip = random_triplets(args.nodes, args.features, args.dx, rng)
        w1 = random_dense(args.features, args.hidden, rng)
        w2 = random_dense(args.hidden, args.classes, rng)
    else:
        if None in (args.a, args.x, args.w1, args.w2):
            raise CommandError("parse", "need --a --x --w1 --w2 or --synthetic")
        a_trip = _load_sparse(args.a, "parse")
        x_trip = _load_sparse(args.x, "parse")
        try:
            w1 = load_dense_csv(args.w1)
            w2 = load_dense_csv(args.w2)
        except ValueError as e:
            raise CommandError("parse", str(e)) from e
    gcn = GcnWorkload(a_trip, x_trip, w1, w2)
    gcn.validate()

    a_csc = to_csc(a_trip)
    rows: list[tuple[str, SimStats]] = []

    def sdmm_step(label: str, a_sparse, b_dense: DenseMatrix) -> DenseMatrix:
        workload = Workload(a_sparse, b_dense, label)
        plan_cfg = cfg.sdmm_variant()
        try:
            plan = plan_partition(plan_cfg, workload.spec(plan_cfg))
            result, stats = run(workload, plan, cfg, MODE_SDMM)
        except Exception as e:
            raise CommandError(label, str(e)) from e
        rows.append((label, stats))
        return result

    p1 = sdmm_step("step1_xw1", to_csc(x_trip), w1)
    p2 = sdmm_step("step2_a_xw1", a_csc, p1)
    p3 = sdmm_step("step3_h1w2", to_csc(to_triplets(p2)), w2)
    p4 = sdmm_step("step4_a_h1w2", a_csc, p3)

    a_dense = to_dense(a_trip)
    oracle = dense_matmul(a_dense, dense_matmul(dense_matmul(
        dense_matmul(a_dense, to_dense(x_trip)), w1), w2))
    ok = np.allclose(p4.data, oracle.data, rtol=1e-9, atol=1e-9)
    max_err = float(np.max(np.abs(p4.data - oracle.data))) if p4.data.size else 0.0

    if args.out:
        write_dense_csv(p4, args.out)
    info = {"command": "gcn", "oracle_check": "pass" if ok else "FAIL",
            "max_abs_error": f"{max_err:.6g}",
            "strategies": ",".join(s.strategy for _, s in rows)}
    _write(args.report, _report_lines(rows, args.report_format, info))
    if not ok:
        raise CommandError("verify", "result disagrees with dense oracle")
    return 0


def cmd_sweep(args) -> int:
    base = load_config(args.config)
    if args.a:
        a_trip = _load_sparse(args.a, "parse")
        b_trip = _load_sparse(args.b, "parse") if args.b else None
        if b_trip is None:
            raise CommandError("parse", "--a requires --b")
    else:
        if None in (args.m, args.k, args.n, args.da, args.db):
            raise CommandError("parse",
                               "need --a/--b files or all of --m --k --n --da --db")
        rng = np.random.default_rng(args.seed)
        a_trip = random_triplets(args.m, args.k, args.da, rng)
        b_trip = random_triplets(args.k, args.n, args.db, rng)
    mode = _resolve_mode(args.mode, b_trip, args.sdmm_threshold)

    grids = [int(g) for g in args.grids.split(",") if g]
    scales = [float(s) for s in args.buffer_scales.split(",") if s]
    lines = ["grid,buffer_scale,peak_macs_per_cycle,"
             + ",".join(CSV_COLUMNS) + ",status"]
    for g in grids:
        for s in scales:
            cfg = base.with_grid(g, g).scaled_buffers(s)
            label = f"{g}x{g}_scale{s:g}"
            try:
                _, stats, _ = _run_one(a_trip, b_trip, mode, cfg, "spill",
                                       label)
                lines.append(f"{g},{s:g},{stats.peak_macs_per_cycle},"
                             + stats.csv_row(label) + ",ok")
            except Exception as e:  # failed cells must not abort the sweep
                empty = ",".join([label, mode] + [""] * (len(CSV_COLUMNS) - 2))
                reason = str(e).replace(",", ";").replace("\n", " ")
                lines.append(f"{g},{s:g},{g * g},{empty},error: {reason}")
    _write(args.report, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iohp",
        description="Hybrid-product SpMM dataflow: run, plan, and sweep")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mode=True):
        p.add_argument("--config", help="key=value hardware config file")
        p.add_argument("--report", help="report output path (default stdout)")
        p.add_argument("--report-format", choices=("csv", "text"),
                       default="csv")
        if with_mode:
            p.add_argument("--mode", choices=("ssmm", "sdmm", "auto"),
                           default="auto")
            p.add_argument("--sdmm-threshold", type=float,
                           default=DEFAULT_SDMM_THRESHOLD,
                           help="auto mode picks SDMM above this B density")

    p = sub.add_parser("spmm", help="multiply two matrices and report stats")
    p.add_argument("--a", required=True, help="Matrix Market file for A")
    p.add_argument("--b", required=True, help="Matrix Market file for B")
    p.add_argument("--out", help="result path (.mtx for ssmm, CSV for sdmm)")
    p.add_argument("--policy", choices=("spill", "fail"), default="spill")
    p.add_argument("--plan", help="use this plan record instead of planning")
    common(p)
    p.set_defaults(func=cmd_spmm)

    p = sub.add_parser("sim", help="simulate a product, report stats only")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--policy", choices=("spill", "fail"), default="spill")
    p.add_argument("--plan", help="use this plan record instead of planning")
    common(p)
    p.set_defaults(func=cmd_spmm, out=None)

    p = sub.add_parser("plan", help="print the DRAM-minimal partition plan")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--da", type=float)
    p.add_argument("--db", type=float)
    p.add_argument("--mode", choices=("ssmm", "sdmm"), default="ssmm")
    p.add_argument("--config")
    p.add_argument("--report")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("gcn", help="run the 2-layer GCN product chain")
    p.add_argument("--a", help="adjacency (Matrix Market)")
    p.add_argument("--x", help="features (Matrix Market)")
    p.add_argument("--w1", help="layer-1 weights (CSV)")
    p.add_argument("--w2", help="layer-2 weights (CSV)")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--nodes", type=int, default=2708)
    p.add_argument("--features", type=int, default=1433)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--classes", type=int, default=7)
    p.add_argument("--da", type=float, default=0.0014)
    p.add_argument("--dx", type=float, default=0.0127)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="final dense result (CSV)")
    common(p, with_mode=False)
    p.set_defaults(func=cmd_gcn)

    p = sub.add_parser("sweep", help="grid/buffer design-space sweep")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--da", type=float)
    p.add_argument("--db", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grids", default="4,8,16")
    p.add_argument("--buffer-scales", default="0.5,1,2")
    common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: internal: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
