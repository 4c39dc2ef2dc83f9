#!/usr/bin/env python3
"""The iohp benchmark: one seeded workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload gcn_cora --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Each op is issued only after the previous one finished.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs every op
twice, untraced and traced, and reports the per-layer metrics.  The last line
of standard output is one JSON object; the lines before it are a readable
table.  Traces and per-layer tables are written under ``.perfbench/``.

The end-to-end times are reference seconds (see ``SpeedProbe``); the host
seconds they come from are printed in the table.  See ``perfbench/README.md``
for the metrics and workloads.
"""

from __future__ import annotations

import os

# one thread: BLAS must not spread the dense products over both cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def import_iohp() -> tuple[float, list]:
    """Import iohp from the checkout (never an installed copy); time it."""
    src = ROOT / "src"
    if not (src / "iohp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no iohp package under {src}")
    sys.path.insert(0, str(src))
    sys.dont_write_bytecode = True  # every run compiles the same sources
    t0 = time.perf_counter()
    import iohp.cli
    import iohp.costmodel
    import iohp.encoding
    import iohp.engine
    import iohp.matrices
    import iohp.planner
    import_s = time.perf_counter() - t0
    if Path(iohp.__file__).resolve().parent != src / "iohp":
        sys.exit(f"perfbench: imported iohp from {iohp.__file__}, not {src}")
    return import_s, [iohp.cli, iohp.costmodel, iohp.engine, iohp.encoding,
                      iohp.matrices, iohp.planner]


def op_metrics(times: list[float], macs: int) -> dict:
    """Median, tail and rates of per-op times.

    The tail is the highest percentile with at least ten samples beyond it,
    but never below the median.
    """
    if not times:
        return dict(p50=0.0, tail=0.0, tail_pct=0.0, beyond=0, ops_per_s=0.0,
                    macs_per_s=0.0)
    s = sorted(times)
    idx = max(len(s) - 11, len(s) // 2)
    busy = sum(s)
    return dict(p50=statistics.median(s), tail=s[idx],
                tail_pct=100.0 * (idx + 1) / len(s), beyond=len(s) - 1 - idx,
                ops_per_s=len(s) / busy, macs_per_s=macs / busy)


class Runner:
    """Runs one workload's ops and keeps every failure it sees."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []
        self.models: dict = {}  # op -> modelled numbers of its first run

    def attempt(self, op, call=None) -> tuple[float, object]:
        """Run one op (through ``call`` if given), check it; (seconds, outcome)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call() if call else self.wl.execute(op)
        except Exception as e:  # a raising op is a failed op, never fatal
            dt = time.perf_counter() - t0
            self.failures.append(f"op {op}: raised {type(e).__name__}: {e}")
            return dt, None
        dt = time.perf_counter() - t0
        try:
            outcome = self.wl.check(op, out)
        except Exception as e:  # unreadable output is a failed op too
            self.failures.append(f"op {op}: checking raised "
                                 f"{type(e).__name__}: {e}")
            return dt, None
        if not outcome.ok:
            self.failures.append(f"op {op}: {outcome.why}")
            return dt, None
        first = self.models.setdefault(op, outcome.model)
        if outcome.model != first:
            self.failures.append(f"op {op}: modelled numbers changed between "
                                 f"runs: {first} then {outcome.model}")
            return dt, None
        return dt, outcome

    def totals(self) -> tuple[int, float]:
        """Modelled cycles and DRAM bytes summed over one pass of the inputs."""
        ops = self.wl.ops()
        if not all(op in self.models for op in ops):
            return 0, 0.0
        return (sum(self.models[op][0] for op in ops),
                sum(self.models[op][1] for op in ops))


class SpeedProbe:
    """A fixed kernel of the benchmark's own, timed between ops.

    The host's speed drifts by up to 1.8x over seconds to minutes: other
    tenants contend for the physical core, the guest sees neither steal time
    nor load, and process CPU time slows with the wall clock.  The kernel
    (a sort, dict inserts, an interpreter loop, small numpy calls) slows with
    the program, so an op's host seconds times ``REF_S`` over the kernel's
    time around it are *reference seconds*: seconds on a host where the kernel
    takes ``REF_S``.  The kernel runs no iohp code, so a faster program gives
    fewer reference seconds.
    """

    REF_S = 0.010
    EVERY_S = 0.2

    def __init__(self):
        import numpy as np  # only after iohp, whose import time includes it

        self.np = np
        self.keys = np.random.default_rng(0).integers(0, 1 << 30, 40000)
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        np = self.np
        t0 = time.perf_counter()
        np.argsort(self.keys, kind="stable")
        np.unique(self.keys)
        table = {}
        for i in range(4000):
            table[(i, i & 7)] = float(i)
        acc = 0
        for i in range(4000):
            acc += i * i
        a = np.arange(64.0)
        for _ in range(60):
            a = np.sqrt(a + 1.0)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.EVERY_S

    def scale(self, seconds: float, samples: list[float]) -> float:
        return seconds * self.REF_S / statistics.median(samples)

    def ref_seconds(self, seconds: float, before: int) -> float:
        """``seconds`` of an op run between samples ``before`` and
        ``before+1``, scaled by the (up to) six samples around it."""
        return self.scale(seconds, self.samples[max(0, before - 2):before + 4])


def setup(wl, seed: int, runner: Runner, probe) -> tuple[float, float]:
    """Prepare inputs SETUP_REPEATS times, then warm up, sampling the speed
    probe after each step; (median prepare s, warm-up s)."""
    prepare = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare(seed)
        prepare.append(time.perf_counter() - t0)
        probe.sample()
    wl.oracle()
    t0 = time.perf_counter()
    for op in wl.warmup_ops():
        runner.attempt(op)
    warm_s = time.perf_counter() - t0
    probe.sample()
    return statistics.median(prepare), warm_s


def passes(ops: list, seconds: float):
    """Ops in pass order until ``seconds`` have passed and one whole pass is done."""
    deadline = time.perf_counter() + seconds
    yield from ops
    while time.perf_counter() < deadline:
        for op in ops:
            yield op
            if time.perf_counter() >= deadline:
                return


def measure(runner: Runner, seconds: float, probe) -> tuple[list, list, list]:
    """Host and reference seconds, and the outcome, of every measured op that
    passed its checks; the speed probe runs between ops."""
    done = []
    for op in passes(runner.wl.ops(), seconds):
        before = len(probe.samples) - 1
        dt, outcome = runner.attempt(op)
        if probe.due():
            probe.sample()
        if outcome is not None:
            done.append((dt, before, outcome))
    probe.sample()
    return ([dt for dt, _, _ in done],
            [probe.ref_seconds(dt, before) for dt, before, _ in done],
            [outcome for _, _, outcome in done])


def measure_traced(runner: Runner, seconds: float, modules, out_stem: Path):
    """Each op untraced and traced, alternating which goes first."""
    import tracer as tr

    t = tr.Tracer(modules)
    counts = tr.Counts()
    layer = dict.fromkeys(tr.TIME_METRICS, 0.0)
    plain_s = traced_s = 0.0
    n_traced = 0
    for op_id, op in enumerate(passes(runner.wl.ops(), seconds)):
        first = len(t.spans)
        traced_call = lambda: t.traced_op(op_id, lambda: runner.wl.execute(op))
        if op_id % 2:
            plain, plain_out = runner.attempt(op)
            traced, traced_out = runner.attempt(op, traced_call)
        else:
            traced, traced_out = runner.attempt(op, traced_call)
            plain, plain_out = runner.attempt(op)
        table, wall = tr.op_table(t.spans, first)
        if abs(sum(table.values()) - wall) > 1e-9 * (len(t.spans) - first):
            sys.exit(f"perfbench: op {op_id}: self times sum to "
                     f"{sum(table.values())}, root span is {wall}")
        counts.add(t.spans, first)
        if plain_out is None or traced_out is None:
            continue
        plain_s += plain
        traced_s += traced
        n_traced += 1
        for k, v in table.items():
            layer[k] += v
    n = max(n_traced, 1)
    metrics = {k: (v / n, "s") for k, v in layer.items()}
    metrics.update({k: (v / n, "count") for k, v in counts.values.items()})
    metrics["engine.join_match_ratio"] = (counts.join_match_ratio, "ratio")
    metrics["engine.psum_peak_occupancy"] = (counts.peak_occupancy, "ratio")
    metrics["trace.overhead_ratio"] = (
        traced_s / plain_s - 1.0 if plain_s else 0.0, "ratio")
    write_trace(t.spans, out_stem.with_name(out_stem.name + "-trace.json"))
    with open(out_stem.with_name(out_stem.name + "-layers.json"), "w") as f:
        json.dump({"ops": n_traced, "untraced_s": plain_s, "traced_s": traced_s,
                   "per_op": {k: v for k, (v, _) in metrics.items()}}, f, indent=1)
    return metrics


def write_trace(spans, path: Path) -> None:
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as f:
        json.dump({"time_unit": "s", "fields": ["id", "name", "start", "end",
                                                 "parent", "op"],
                   "spans": [[i, s[0], s[1] - t0, s[2] - t0, s[3], s[4]]
                             for i, s in enumerate(spans)]}, f)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced input sizes, for a quick check")
    args = p.parse_args(argv)

    import_s, modules = import_iohp()
    import workloads

    probe = SpeedProbe()
    probe.sample()

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from "
                 + ", ".join(workloads.WORKLOADS))
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = cls(str(workdir), small=args.small)
        runner = Runner(wl)
        prepare_s, warm_s = setup(wl, seed, runner, probe)
        if args.trace:
            stem = out_dir / f"{args.workload}-seed{seed}"
            metrics = measure_traced(runner, args.seconds, modules, stem)
        else:
            done = measure(runner, args.seconds, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cycles, dram = runner.totals()
    failed = len(runner.failures)
    if not args.trace:
        times, ref_times, outcomes = done
        macs = sum(outcome.macs for outcome in outcomes)
        host = op_metrics(times, macs)
        ref = op_metrics(ref_times, macs)
        setup_host_s = import_s + prepare_s + warm_s
        # samples taken after the import, each preparation and the warm-up
        setup_ref_s = probe.scale(setup_host_s,
                                  probe.samples[:SETUP_REPEATS + 2])
        metrics = {
            "op_s_p50": (ref["p50"], "s"),
            "op_s_tail": (ref["tail"], "s"),
            "ops_per_s": (ref["ops_per_s"], "1/s"),
            "sim_macs_per_s": (ref["macs_per_s"], "MAC/s"),
            "setup_s": (setup_ref_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "pass_ratio": (1.0 - failed / runner.attempted, "ratio"),
            "sim_cycles": (cycles, "cycles"),
            "sim_dram_bytes": (dram, "B"),
        }
        print(f"# {args.workload} seed={seed} ops={len(times)} "
              f"tail=p{host['tail_pct']:.1f} with {host['beyond']} samples "
              f"beyond, fail_ratio={failed / runner.attempted:.6g} "
              f"(import {import_s:.4f}s, prepare {prepare_s:.4f}s, "
              f"warm-up {warm_s:.4f}s)")
        print(f"# host seconds: op_s_p50={host['p50']:.6g} s "
              f"op_s_tail={host['tail']:.6g} s ops_per_s={host['ops_per_s']:.6g} "
              f"1/s sim_macs_per_s={host['macs_per_s']:.6g} MAC/s "
              f"setup_s={setup_host_s:.6g} s; probe median "
              f"{statistics.median(probe.samples) * 1e3:.4g} ms, the metrics "
              f"below are in reference seconds (probe = "
              f"{SpeedProbe.REF_S * 1e3:g} ms)")
    else:
        print(f"# {args.workload} seed={seed} traced, "
              f"fail_ratio={failed / runner.attempted:.6g}, "
              f"sim_cycles={cycles} sim_dram_bytes={dram}")
    for why in runner.failures[:20]:
        print(f"# FAILED {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
