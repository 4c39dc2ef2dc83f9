"""Spans around the public functions of each iohp layer, recorded from outside.

The tracer replaces a function in every module namespace that binds it (the
CLI and the cost model bind engine functions with ``from .engine import``, and
spill flushes look ``address_map`` up in ``iohp.engine``), so nested calls
nest their spans.  A layer's self time is the duration of its spans minus the
time covered by their direct children; per op the self times of all spans add
up to the op's root span.

Counts (products, spills, blocks, cycles) are read from the arguments and
results of a few spans after the op has finished, so that reading them costs
no time inside any span.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# function name -> the per-layer time metric its self time is charged to
LAYER_OF = {
    "op": "cli.self_s",
    "main": "cli.self_s",
    "load_matrix_market": "matrices.parse_s",
    "load_dense_csv": "matrices.parse_s",
    "to_csc": "matrices.convert_s",
    "to_csr": "matrices.convert_s",
    "to_dense": "matrices.convert_s",
    "to_triplets": "matrices.convert_s",
    "dense_matmul": "matrices.oracle_s",
    "write_matrix_market": "matrices.write_s",
    "write_dense_csv": "matrices.write_s",
    "plan_partition": "planner.plan_s",
    "encode_rp_csc": "encoding.encode_s",
    "encode_cp_csr": "encoding.encode_s",
    "compute_psums": "engine.compute_s",
    "address_map": "engine.addrmap_s",
    "merge_output_blocks": "engine.merge_s",
    "assemble_output": "engine.merge_s",
    "sdmm_compute": "engine.sdmm_s",
    "gather_dense_rows": "engine.sdmm_s",
    "run": "costmodel.run_self_s",
    "compute_cycles": "costmodel.cycles_s",
    "sdmm_compute_cycles": "costmodel.cycles_s",
    "addrmap_cycles": "costmodel.cycles_s",
}

# spans whose arguments and result are kept until the op ends, for counting
COUNTED = {"plan_partition", "encode_rp_csc", "encode_cp_csr",
           "compute_psums", "sdmm_compute", "run"}

TIME_METRICS = sorted(set(LAYER_OF.values()))
COUNT_METRICS = ["planner.calls", "encoding.blocks", "encoding.entries",
                 "engine.products", "engine.spill_events", "costmodel.passes",
                 "costmodel.encode_cycles", "costmodel.compute_cycles",
                 "costmodel.addrmap_cycles"]
RATIO_METRICS = ["engine.join_match_ratio", "engine.psum_peak_occupancy",
                 "trace.overhead_ratio"]

# a span is [name, start, end, parent index, op id, (args, result) or None]
NAME, START, END, PARENT, OP, PAYLOAD = range(6)


class Tracer:
    """Records spans while installed; keeps them in memory until written."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []
        self._wrappers: dict = {}

    def _wrap(self, fn, name: str):
        keep = name in COUNTED
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._op,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep:
                span[PAYLOAD] = (args, result)
            return result

        return wrapper

    def install(self):
        """Replace every layer function in every namespace that binds it."""
        for module in self.modules:
            for name in LAYER_OF:
                fn = getattr(module, name, None)
                if not callable(fn) or not getattr(fn, "__module__", "").startswith("iohp."):
                    continue
                wrapper = self._wrappers.get(fn)
                if wrapper is None:
                    wrapper = self._wrappers[fn] = self._wrap(fn, name)
                self._saved.append((module, name, fn))
                setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def traced_op(self, op_id: int, call):
        """Run ``call()`` as op ``op_id`` under a root span named ``op``."""
        self._op = op_id
        root = self._wrap(call, "op")
        self.install()
        try:
            return root()
        finally:
            self.uninstall()
            self._op = -1


def op_table(spans, first: int) -> tuple[dict, float]:
    """Self time per layer metric and the root duration of one op's spans.

    ``spans[first]`` is the op's root span; every later span belongs to it.
    """
    child_time = [0.0] * (len(spans) - first)
    for sp in spans[first + 1:]:
        child_time[sp[PARENT] - first] += sp[END] - sp[START]
    table = dict.fromkeys(TIME_METRICS, 0.0)
    for i, sp in enumerate(spans[first:]):
        table[LAYER_OF[sp[NAME]]] += sp[END] - sp[START] - child_time[i]
    root = spans[first]
    return table, root[END] - root[START]


class Counts:
    """Per-layer counts read from the kept span payloads."""

    def __init__(self):
        self.values = dict.fromkeys(COUNT_METRICS, 0)
        self.join_matches = 0
        self.join_steps = 0
        self.peak_occupancy = 0.0

    def add(self, spans, first: int) -> None:
        v = self.values
        for sp in spans[first:]:
            if sp[PAYLOAD] is None:
                continue
            args, result = sp[PAYLOAD]
            sp[PAYLOAD] = None
            name = sp[NAME]
            if name == "plan_partition":
                v["planner.calls"] += 1
            elif name.startswith("encode_"):
                v["encoding.blocks"] += 1
                v["encoding.entries"] += result.nnz
            elif name == "compute_psums":
                v["engine.products"] += result.appended_products
                v["engine.spill_events"] += result.spill_events
                for st in result:
                    self.peak_occupancy = max(self.peak_occupancy,
                                              st.peak_id / st.capacity)
                self._join(args[0].col_idx[:args[0].col_all_len],
                           args[1].row_idx[:args[1].row_all_len])
            elif name == "sdmm_compute":
                v["engine.products"] += result.macs
            elif name == "run":
                stats = result[1]
                v["costmodel.passes"] += len(stats.traces)
                v["costmodel.encode_cycles"] += stats.encode_cycles
                v["costmodel.compute_cycles"] += stats.compute_cycles
                v["costmodel.addrmap_cycles"] += stats.addrmap_cycles

    def _join(self, a_idx, b_idx) -> None:
        """Steps of the two-pointer join over two ascending index streams.

        Each step consumes one index of one stream, or a matched pair; the
        join stops when either stream runs out.
        """
        if len(a_idx) == 0 or len(b_idx) == 0:
            return
        limit = min(a_idx[-1], b_idx[-1])
        consumed_a = int(np.searchsorted(a_idx, limit, side="right"))
        consumed_b = int(np.searchsorted(b_idx, limit, side="right"))
        matches = len(np.intersect1d(a_idx[:consumed_a], b_idx[:consumed_b],
                                     assume_unique=True))
        self.join_matches += matches
        self.join_steps += consumed_a + consumed_b - matches

    @property
    def join_match_ratio(self) -> float:
        return self.join_matches / self.join_steps if self.join_steps else 0.0
