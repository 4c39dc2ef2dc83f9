"""Command-line harness: spmm, plan, sim, gcn, and sweep subcommands.

All commands are deterministic under fixed seeds and inputs; reports carry
no timestamps, so re-runs are byte-identical.  Hardware parameters come from
a flat key=value config file (defaults: 8x8 grid at 800 MHz, 2K-entry input
buffers, 256-entry psum store, r_x 0.75).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from .costmodel import (CSV_COLUMNS, MODE_SDMM, MODE_SSMM, SimStats, Workload,
                        run)
from .encoding import make_geometry
from .matrices import (DenseMatrix, TripletMatrix, load_dense_csv,
                       load_matrix_market, to_csc, to_csr, to_dense,
                       to_triplets, write_dense_csv, write_matrix_market)
from .planner import (HardwareConfig, PartitionPlan, WorkloadSpec,
                      check_density, dram_access, plan_partition,
                      record_fields)
from .synthetic import random_dense, random_triplets

DEFAULT_SDMM_THRESHOLD = 0.25


class CommandError(Exception):
    """Failure inside a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def _check_chain(a: TripletMatrix, x: TripletMatrix, w1: DenseMatrix,
                 w2: DenseMatrix) -> None:
    """Two-layer GCN operands must conform: adjacency, features, weights."""
    if a.n_rows != a.n_cols or a.n_cols != x.n_rows:
        raise CommandError("parse", "A must be square and conform with X")
    if x.n_cols != w1.n_rows:
        raise CommandError("step1_xw1", "X columns != W1 rows")
    if w1.n_cols != w2.n_rows:
        raise CommandError("step3_h1w2", "W1 columns != W2 rows")


def triplet_product(t: TripletMatrix, b: np.ndarray) -> np.ndarray:
    """``t · b`` one output column at a time: a weighted ``np.bincount`` on
    t's rows per column of ``b``, read from one contiguous transpose, so each
    cell sums its products over t's triplets in stored order, from +0.0.
    Memory is O(nnz + rows·width); no engine code runs."""
    out = np.empty((t.n_rows, b.shape[1]))
    for j, column in enumerate(np.ascontiguousarray(b.T)):
        # written into the float result: an empty t's bincount is int64
        out[:, j] = np.bincount(t.rows, t.vals * column[t.cols],
                                minlength=t.n_rows)
    return out


def gcn_check(a: TripletMatrix, x: TripletMatrix, w1: DenseMatrix,
              w2: DenseMatrix) -> np.ndarray:
    """The chain's reference ``A·((A·(X·W1))·W2)``, associated as the chain
    is, from the sparse operands; the small ``H1·W2`` step is a dense ``@``."""
    h1 = triplet_product(a, triplet_product(x, w1.data))
    return triplet_product(a, h1 @ w2.data)


def load_config(path: str | None) -> HardwareConfig:
    """Parse the flat key=value hardware config file (``record_fields``)."""
    if path is None:
        return HardwareConfig()
    kinds = dict.fromkeys(("c_a", "c_b", "c_psum", "g_na", "g_nb", "bits_value",
                           "bits_index", "bits_len"), int)
    kinds.update(r_x=float, freq_hz=float)
    try:
        with open(path, "r", encoding="ascii") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CommandError("config", f"cannot read {path}: {e}") from e
    kwargs = {}
    try:
        for i, key, val in record_fields(text, path, "key"):
            where = f"{path} line {i}: {key}"
            if key not in kinds:
                raise CommandError("config", f"{where}: unknown config key")
            try:
                kwargs[key] = kinds[key](val)
                HardwareConfig(**kwargs)  # name the line that breaks a bound
            except ValueError as e:
                raise CommandError("config", f"{where}: {e}") from e
    except ValueError as e:  # a line record_fields rejects
        raise CommandError("config", str(e)) from e
    return HardwareConfig(**kwargs)


def _load(parse, path: str):
    """Read one input file with ``parse``; a malformed file is named."""
    try:
        return parse(path)
    except OSError as e:
        raise CommandError("parse", str(e)) from e
    except ValueError as e:
        raise CommandError("parse", f"{path}: {e}") from e


def _resolve_mode(requested: str, b_triplets, threshold: float) -> str:
    _check_unit_interval("--sdmm-threshold", threshold)
    if requested != "auto":
        return requested
    if b_triplets.n_rows * b_triplets.n_cols == 0:
        raise CommandError("parse", "auto mode needs a non-empty B, got "
                           f"{b_triplets.n_rows}x{b_triplets.n_cols}")
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


def _operand_files(args):
    """A and B from ``--a``/``--b``, checked to conform; None if dims stand in."""
    if args.a:
        a_trip = _load(load_matrix_market, args.a)
        if not args.b:
            raise CommandError("parse", "--a requires --b")
        b_trip = _load(load_matrix_market, args.b)
        if a_trip.n_cols != b_trip.n_rows:
            raise CommandError("parse", "dimension mismatch: "
                               f"A is {a_trip.n_rows}x{a_trip.n_cols}, "
                               f"B is {b_trip.n_rows}x{b_trip.n_cols}")
        return a_trip, b_trip
    if None in (args.m, args.k, args.n, args.da, args.db):
        raise CommandError("parse",
                           "need --a/--b files or all of --m --k --n --da --db")
    return None


def _check_unit_interval(flag: str, value: float) -> None:
    """A density-like flag outside [0, 1], or NaN, is a parse error."""
    try:
        check_density(flag, value)
    except ValueError as e:
        raise CommandError("parse", str(e)) from e


def _check_dims(args, *flags: str) -> None:
    """Synthetic dimensions must be positive; checked before any draw."""
    for flag in flags:
        value = getattr(args, flag[2:])
        if value <= 0:
            raise CommandError("parse",
                               f"{flag}: expected a positive integer, got {value}")


def _rng(seed: int) -> np.random.Generator:
    """The synthetic draws' generator; a negative ``--seed`` is a parse error."""
    if seed < 0:
        raise CommandError(
            "parse", f"--seed: expected a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _draw(n_rows: int, n_cols: int, density: float, flag: str, rng):
    """``random_triplets`` for a synthetic operand; a bad density names its flag."""
    _check_unit_interval(flag, density)
    return random_triplets(n_rows, n_cols, density, rng)


def _positive_list(text: str, flag: str, kind) -> list:
    """Parse a comma-separated list of positive, finite ``kind`` values."""
    try:
        values = [kind(item) for item in text.split(",") if item]
        if all(0 < v < math.inf for v in values):
            return values
    except ValueError:
        pass
    raise CommandError("parse", f"{flag}: expected positive {kind.__name__}s "
                       f"separated by commas, got {text!r}")


def _plan(spec: WorkloadSpec, cfg: HardwareConfig,
          plan_file: str | None = None) -> PartitionPlan:
    """Plan one product, or load and check its plan record; a product with
    a dense B plans against the doubled psum store."""
    if spec.b_dense:
        cfg = cfg.sdmm_variant()
    if not plan_file:
        return plan_partition(cfg, spec)
    with open(plan_file, "r", encoding="ascii") as f:
        plan = PartitionPlan.from_text(f.read())
    _check_plan_record(plan, spec, cfg)
    return plan


def _workload(a_trip, b_trip, mode: str) -> Workload:
    """A as CSC; B as ``mode`` runs it, dense under SDMM, else CSR."""
    b = to_dense(b_trip) if mode == MODE_SDMM else to_csr(b_trip)
    return Workload(to_csc(a_trip), b)


def _run_one(workload: Workload, mode: str, cfg: HardwareConfig,
             stage: str | None = None, plan_file: str | None = None):
    """Plan (or load a plan record) and execute one product; a failure is
    staged ``plan`` or ``compute``, or ``stage`` when one is given."""
    try:
        plan = _plan(workload.spec(cfg), cfg, plan_file)
    except (ValueError, OSError) as e:
        raise CommandError(stage or "plan", str(e)) from e
    try:
        result, stats = run(workload, plan, cfg, mode)
    except Exception as e:
        raise CommandError(stage or "compute", str(e)) from e
    return result, stats, plan


def _check_plan_record(plan: PartitionPlan, spec: WorkloadSpec,
                       cfg: HardwareConfig) -> None:
    """Reject a plan record made for other dims or with a wrong cost.

    No tile may exceed the largest the planner offers (``ceil(m / g_na)``,
    ``k``, ``ceil(n / g_nb)``), the tile counts must be ``make_geometry``'s,
    and the record's strategy must be one ``dram_access`` offers here, at
    the cost it predicts.
    """
    geom = make_geometry(plan, (spec.m, spec.k, spec.n), (cfg.g_na, cfg.g_nb))
    for name, largest in (("m_t", -(-spec.m // cfg.g_na)), ("k_t", spec.k),
                          ("n_t", -(-spec.n // cfg.g_nb))):
        if getattr(plan, name) > largest:
            raise ValueError(
                f"plan record: {name}={getattr(plan, name)} exceeds the "
                f"largest tile of this workload, {name}={largest}")
    for name in ("t_m", "t_k", "t_n"):
        if getattr(plan, name) != getattr(geom, name):
            raise ValueError(
                f"plan record does not fit this workload: expected "
                f"{name}={getattr(geom, name)}, found {getattr(plan, name)}")
    costs = dict(dram_access(plan, cfg, spec))
    if plan.strategy not in costs:
        raise ValueError(
            f"plan record: strategy {plan.strategy} is not available for this "
            f"workload (available: {', '.join(costs)})")
    if costs[plan.strategy] != plan.predicted_dram:
        raise ValueError(
            f"plan record: predicted_dram={plan.predicted_dram}, but "
            f"{plan.strategy} costs {costs[plan.strategy]} bits here")


def cmd_spmm(args) -> int:
    """``spmm`` and ``sim``: ``sim`` is ``spmm`` without ``--out``."""
    cfg = replace(load_config(args.config), overflow_policy=args.policy)
    a_trip, b_trip = _operand_files(args)
    mode = _resolve_mode(args.mode, b_trip, args.sdmm_threshold)
    result, stats, plan = _run_one(_workload(a_trip, b_trip, mode), mode, cfg,
                                   plan_file=args.plan)
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
    try:  # parse failures raise CommandError, which passes through
        files = _operand_files(args)
        if files:
            a_trip, b_trip = files
            spec = WorkloadSpec.from_counts(
                a_trip.n_rows, a_trip.n_cols, b_trip.n_cols, a_trip.nnz,
                b_trip.nnz, cfg, b_dense=args.mode == MODE_SDMM)
        else:
            _check_dims(args, "--m", "--k", "--n")
            _check_unit_interval("--da", args.da)
            _check_unit_interval("--db", args.db)
            spec = WorkloadSpec.from_dims(args.m, args.k, args.n, args.da,
                                          args.db, cfg,
                                          b_dense=args.mode == MODE_SDMM)
        plan = _plan(spec, cfg)
    except ValueError as e:
        raise CommandError("plan", str(e)) from e
    _write(args.report, plan.to_text())
    return 0


def cmd_gcn(args) -> int:
    cfg = load_config(args.config)
    if args.synthetic:
        _check_dims(args, "--nodes", "--features", "--hidden", "--classes")
        rng = _rng(args.seed)
        a_trip = _draw(args.nodes, args.nodes, args.da, "--da", rng)
        x_trip = _draw(args.nodes, args.features, args.dx, "--dx", rng)
        w1 = random_dense(args.features, args.hidden, rng)
        w2 = random_dense(args.hidden, args.classes, rng)
    else:
        if None in (args.a, args.x, args.w1, args.w2):
            raise CommandError("parse", "need --a --x --w1 --w2 or --synthetic")
        a_trip = _load(load_matrix_market, args.a)
        x_trip = _load(load_matrix_market, args.x)
        w1 = _load(load_dense_csv, args.w1)
        w2 = _load(load_dense_csv, args.w2)
    _check_chain(a_trip, x_trip, w1, w2)

    a_csc, p = to_csc(a_trip), None
    rows: list[tuple[str, SimStats]] = []
    for stage, w in (("step1_xw1", w1), ("step2_a_xw1", None),
                     ("step3_h1w2", w2), ("step4_a_h1w2", None)):
        if w is None:  # the adjacency times the last product
            workload = Workload(a_csc, p, stage)
        else:  # the layer's input, sparse, times its weights
            h = x_trip if p is None else to_triplets(p)
            workload = Workload(to_csc(h), w, stage)
        p, stats, _ = _run_one(workload, MODE_SDMM, cfg, stage)
        rows.append((stage, stats))

    with np.errstate(invalid="ignore"):  # inf·0 and inf−inf: NaN, not close
        oracle = gcn_check(a_trip, x_trip, w1, w2)
        ok = np.allclose(p.data, oracle, rtol=1e-9, atol=1e-9)
        max_err = float(np.max(np.abs(p.data - oracle))) if p.data.size else 0.0

    if args.out:
        write_dense_csv(p, args.out)
    info = {"command": "gcn", "oracle_check": "pass" if ok else "FAIL",
            "max_abs_error": f"{max_err:.6g}",
            "strategies": ",".join(s.strategy for _, s in rows)}
    _write(args.report, _report_lines(rows, args.report_format, info))
    if not ok:
        raise CommandError("verify", "result disagrees with dense oracle")
    return 0


def _cell_config(base: HardwareConfig, grid: int,
                 scale: float) -> HardwareConfig:
    """One sweep cell's config: a square grid and scaled buffers."""
    try:
        return base.with_grid(grid, grid).scaled_buffers(scale)
    except ValueError as e:
        raise CommandError("config", str(e)) from e


def cmd_sweep(args) -> int:
    base = load_config(args.config)
    grids = _positive_list(args.grids, "--grids", int)
    scales = _positive_list(args.buffer_scales, "--buffer-scales", float)
    files = _operand_files(args)
    if files is None:
        _check_dims(args, "--m", "--k", "--n")
        rng = _rng(args.seed)
        files = (_draw(args.m, args.k, args.da, "--da", rng),
                 _draw(args.k, args.n, args.db, "--db", rng))
    a_trip, b_trip = files
    mode = _resolve_mode(args.mode, b_trip, args.sdmm_threshold)
    workload = _workload(a_trip, b_trip, mode)

    lines = ["grid,buffer_scale,peak_macs_per_cycle,"
             + ",".join(CSV_COLUMNS) + ",status"]
    for g in grids:
        for s in scales:
            label = f"{g}x{g}_scale{s:g}"
            try:
                cfg = _cell_config(base, g, s)
                _, stats, _ = _run_one(workload, mode, cfg)
                lines.append(f"{g},{s:g},{stats.peak_macs_per_cycle},"
                             + stats.csv_row(label) + ",ok")
            except Exception as e:  # failed cells must not abort the sweep
                empty = ",".join([label, mode] + [""] * (len(CSV_COLUMNS) - 2))
                reason = str(e).replace(",", ";").replace("\n", " ")
                lines.append(f"{g},{s:g},{g * g},{empty},error: {reason}")
    _write(args.report, "\n".join(lines) + "\n")
    return 0


@functools.cache  # built once per process; parsing leaves it unchanged
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

    def operands(p):  # A and B as files, or dims and densities to draw
        for flag in ("--a", "--b"):
            p.add_argument(flag)
        for flag in ("--m", "--k", "--n"):
            p.add_argument(flag, type=int)
        for flag in ("--da", "--db"):
            p.add_argument(flag, type=float)

    for name, help_ in (("spmm", "multiply two matrices and report stats"),
                        ("sim", "simulate a product, report stats only")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--a", required=True, help="Matrix Market file for A")
        p.add_argument("--b", required=True, help="Matrix Market file for B")
        if name == "spmm":
            p.add_argument("--out",
                           help="result path (.mtx for ssmm, CSV for sdmm)")
        p.add_argument("--policy", choices=("spill", "fail"), default="spill")
        p.add_argument("--plan", help="use this plan record instead of planning")
        common(p)
        p.set_defaults(func=cmd_spmm, out=None)

    p = sub.add_parser("plan", help="print the DRAM-minimal partition plan")
    operands(p)
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
    operands(p)
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
