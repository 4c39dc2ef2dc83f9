"""Golden reports: pinned multi-tile totals, per-pass traces and results.

The determinism tests compare two runs of the same code; this file compares
against text recorded from an earlier version, so a refactor that shifts any
modelled quantity or any result bit fails here.  To re-record after an
intended model change, run ``PYTHONPATH=src python tests/test_golden_reports.py``
and review the diff of ``tests/golden_reports.txt``.
"""

import hashlib
from pathlib import Path

import numpy as np

from iohp.costmodel import Workload, run
from iohp.encoding import make_geometry
from iohp.matrices import CscMatrix, to_csc, to_csr, to_dense
from iohp.planner import HardwareConfig, PartitionPlan, dram_access
from iohp.synthetic import random_dense, random_triplets

GOLDEN = Path(__file__).with_name("golden_reports.txt")

# small buffers on a 2x3 grid: multi-tile plans whose psum stores spill
SPILL_CFG = HardwareConfig(c_a=64, c_b=64, c_psum=16, g_na=2, g_nb=3)


def _digest(result) -> str:
    """Shape, stored-entry count and a hash of every stored bit."""
    if isinstance(result, CscMatrix):
        arrays = (result.col_ptr, result.row_idx, result.value)
        stored = result.nnz
    else:
        arrays = (result.data,)
        stored = result.data.size
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return (f"{result.n_rows}x{result.n_cols} stored={stored} "
            f"sha256={h.hexdigest()}")


def _run_case(label, workload, plan, cfg, mode) -> str:
    result, stats = run(workload, plan, cfg, mode)
    traces = "".join(f"pass={i} encode={t.encode_cycles} "
                     f"compute={t.compute_cycles} addrmap={t.addrmap_cycles} "
                     f"spill={t.spill_events}\n"
                     for i, t in enumerate(stats.traces))
    return (f"[{label}]\n{plan.to_text()}{stats.to_text(label)}{traces}"
            f"result {_digest(result)}\n")


def _tiled_plan(wl, cfg, tile_dims, strategy) -> PartitionPlan:
    """A hand-picked tiling costed under ``strategy``; tiles small enough to
    split every dimension, so the strategies' pass orders and reloads differ."""
    m_t, k_t, n_t = tile_dims
    geom = make_geometry(PartitionPlan(1, 1, 1, m_t, k_t, n_t, strategy, 0),
                         (wl.a.n_rows, wl.a.n_cols, wl.b.n_cols),
                         (cfg.g_na, cfg.g_nb))
    costs = dict(dram_access(geom, cfg, wl.spec(cfg)))
    return PartitionPlan(geom.t_m, geom.t_k, geom.t_n, m_t, k_t, n_t,
                         strategy, costs[strategy])


def _ssmm_cases() -> list[str]:
    out = []
    for seed, (m, k, n, d) in enumerate([(37, 29, 41, 0.12),
                                         (60, 45, 50, 0.1)]):
        rng = np.random.default_rng(1000 + seed)
        kind = "int" if seed % 2 else "float"
        wl = Workload(to_csc(random_triplets(m, k, d, rng, kind)),
                      to_csr(random_triplets(k, n, d, rng, kind)),
                      f"ssmm{seed}")
        for strategy in ("RAF", "RBF", "RABE"):
            plan = _tiled_plan(wl, SPILL_CFG, (10, 10, 8), strategy)
            out.append(_run_case(f"ssmm{seed}_{strategy}", wl, plan,
                                 SPILL_CFG, "ssmm"))
    return out


def _sdmm_case() -> str:
    rng = np.random.default_rng(2000)
    wl = Workload(to_csc(random_triplets(53, 31, 0.1, rng)),
                  random_dense(31, 19, rng), "sdmm0")
    cfg = HardwareConfig(c_a=64, c_b=128, c_psum=32, g_na=2, g_nb=3)
    plan = _tiled_plan(wl, cfg.sdmm_variant(), (10, 8, 4), "RAF")
    return _run_case("sdmm0", wl, plan, cfg, "sdmm")


def _spmm_cases() -> list[str]:
    out = []
    rng = np.random.default_rng(3000)
    tb = random_triplets(27, 35, 0.15, rng)
    wl = Workload(to_csc(random_triplets(33, 27, 0.15, rng)), to_csr(tb))
    plan = _tiled_plan(wl, SPILL_CFG, (6, 8, 5), "RABE")
    for capacity in (256, 4):
        c = run(wl, plan, HardwareConfig(c_psum=capacity, g_na=2, g_nb=3),
                "ssmm")[0]
        out.append(f"[spmm_ssmm_cap{capacity}]\nresult {_digest(c)}\n")
    dense = run(Workload(wl.a, to_dense(tb)), plan,
                HardwareConfig(g_na=2, g_nb=3), "sdmm")[0]
    out.append(f"[spmm_sdmm]\nresult {_digest(dense)}\n")
    return out


def render() -> str:
    return "\n".join(_ssmm_cases() + [_sdmm_case()] + _spmm_cases())


def test_spill_config_exercises_multi_tile_spills():
    text = render()
    spilled = [line for line in text.splitlines()
               if line.startswith("spill_events=") and line != "spill_events=0"]
    assert spilled, "golden SSMM cases no longer reach the spill path"
    assert any(line.startswith("T_K=") and line != "T_K=1"
               for line in text.splitlines())


def test_reports_match_golden():
    assert render() == GOLDEN.read_text(encoding="ascii")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="ascii")
