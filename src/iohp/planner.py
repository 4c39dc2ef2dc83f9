"""Adaptive tiling: exhaustive search for the DRAM-minimal partition.

Tile dimensions must keep each A tile, B tile, and the per-PE psum estimate
inside the reserved fraction ``r_x`` of the corresponding buffer (strict
inequalities).  Three reuse strategies are costed:

* RAF (reuse A first) keeps a full A row strip resident and streams B once
  per strip: cost ``m_b * t_m + m_a``, available when a strip fits buffer A.
* RBF (reuse B first) mirrors it over B column strips: ``m_a * t_n + m_b``.
* RABE reloads both: ``m_a * t_n + m_b * t_m``, always available.

The candidate lattice enumerates tile counts (ceiling-divided tile sizes),
which keeps the space finite and covers ragged edges; costs depend only on
the resulting strip counts, and feasibility is monotone in tile size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DegenerateInputError, InfeasibleError

STRATEGY_RAF = "RAF"
STRATEGY_RBF = "RBF"
STRATEGY_RABE = "RABE"
_STRATEGY_RANK = {STRATEGY_RAF: 0, STRATEGY_RBF: 1, STRATEGY_RABE: 2}


@dataclass(frozen=True)
class HardwareConfig:
    """Buffer capacities (element slots of the value stream), grid, widths.

    Defaults follow the 8x8 grid at 800 MHz with 2K-entry input buffers and a
    256-entry psum store per PE; original-format streams are 64/32/16-bit
    (value/index/length).  ``r_x`` reserves headroom against the uniform
    density assumption.
    """

    c_a: int = 2048
    c_b: int = 2048
    c_psum: int = 256
    g_na: int = 8
    g_nb: int = 8
    r_x: float = 0.75
    bits_value: int = 64
    bits_index: int = 32
    bits_len: int = 16
    freq_hz: float = 800e6

    def __post_init__(self):
        if min(self.c_a, self.c_b, self.c_psum) < 1:
            raise ValueError("buffer capacities must be >= 1")
        if not 0 < self.r_x <= 1:
            raise ValueError("r_x must be in (0, 1]")
        if min(self.g_na, self.g_nb) < 1:
            raise ValueError("grid dims must be >= 1")

    def sdmm_variant(self) -> "HardwareConfig":
        """Psum capacity doubles in SDMM mode (address-map buffers merged in)."""
        return replace(self, c_psum=2 * self.c_psum)

    def scaled_buffers(self, scale: float) -> "HardwareConfig":
        """Input buffers scale linearly, the psum buffer quadratically."""
        return replace(self,
                       c_a=max(1, round(self.c_a * scale)),
                       c_b=max(1, round(self.c_b * scale)),
                       c_psum=max(1, round(self.c_psum * scale * scale)))

    def with_grid(self, g_na: int, g_nb: int) -> "HardwareConfig":
        return replace(self, g_na=g_na, g_nb=g_nb)


@dataclass(frozen=True)
class WorkloadSpec:
    """Dims, densities, and total encoded storage (bits) of both operands.

    ``nnz_*`` are the stored-entry counts the storage sizes were derived
    from; for a dense right operand every element is stored (``d_b`` = 1,
    no index/pointer streams).
    """

    m: int
    k: int
    n: int
    d_a: float
    d_b: float
    m_a: int
    m_b: int
    nnz_a: int
    nnz_b: int
    b_dense: bool = False

    @classmethod
    def from_dims(cls, m: int, k: int, n: int, d_a: float, d_b: float,
                  cfg: HardwareConfig, b_dense: bool = False) -> "WorkloadSpec":
        if min(m, k, n) <= 0:
            raise DegenerateInputError(f"dimensions must be positive: {(m, k, n)}")
        nnz_b = 0 if b_dense else round(k * n * d_b)
        spec = cls.from_counts(m, k, n, round(m * k * d_a), nnz_b, cfg, b_dense)
        return replace(spec, d_a=d_a, d_b=1.0 if b_dense else d_b)

    @classmethod
    def from_counts(cls, m: int, k: int, n: int, nnz_a: int, nnz_b: int,
                    cfg: HardwareConfig, b_dense: bool = False) -> "WorkloadSpec":
        """Exact spec for concrete matrices (densities derived from counts)."""
        if b_dense:
            return cls(m, k, n, nnz_a / (m * k), 1.0,
                       m_a=_sparse_bits(nnz_a, k, cfg),
                       m_b=k * n * cfg.bits_value,
                       nnz_a=nnz_a, nnz_b=k * n, b_dense=True)
        return cls(m, k, n, nnz_a / (m * k), nnz_b / (k * n),
                   m_a=_sparse_bits(nnz_a, k, cfg),
                   m_b=_sparse_bits(nnz_b, k, cfg),
                   nnz_a=nnz_a, nnz_b=nnz_b)


def _sparse_bits(nnz: int, ptr_len: int, cfg: HardwareConfig) -> int:
    return nnz * (cfg.bits_value + cfg.bits_index) + ptr_len * cfg.bits_len


@dataclass(frozen=True)
class PartitionPlan:
    """Chosen tile counts/dims, reuse strategy, and predicted DRAM bits."""

    t_m: int
    t_k: int
    t_n: int
    m_t: int
    k_t: int
    n_t: int
    strategy: str
    predicted_dram: int

    def total_blocks(self) -> int:
        return self.t_m * self.t_k * self.t_n

    def to_text(self) -> str:
        """Flat key=value record, one field per line."""
        return "".join(f"{k}={getattr(self, k)}\n" for k in (
            "t_m", "t_k", "t_n", "m_t", "k_t", "n_t", "strategy",
            "predicted_dram"))

    @classmethod
    def from_text(cls, text: str) -> "PartitionPlan":
        fields = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            fields[key.strip()] = val.strip()
        return cls(t_m=int(fields["t_m"]), t_k=int(fields["t_k"]),
                   t_n=int(fields["t_n"]), m_t=int(fields["m_t"]),
                   k_t=int(fields["k_t"]), n_t=int(fields["n_t"]),
                   strategy=fields["strategy"],
                   predicted_dram=int(fields["predicted_dram"]))


def storage_size(rows: int, cols: int, density: float, cfg: HardwareConfig,
                 orientation: str = "csc") -> float:
    """Encoded storage in bits: entry streams plus the pointer stream.

    CSC orientation carries one pointer per column; CSR mirrors with rows.
    """
    ptr = cols if orientation == "csc" else rows
    return _sparse_bits(rows * cols * density, ptr, cfg)


def feasible(plan: PartitionPlan, cfg: HardwareConfig, wl: WorkloadSpec) -> bool:
    """Strict buffer-capacity constraints on one tile's expected contents."""
    if min(plan.m_t, plan.k_t, plan.n_t) <= 0:
        return False
    return (plan.m_t * plan.k_t * wl.d_a < cfg.c_a * cfg.r_x
            and plan.k_t * plan.n_t * wl.d_b < cfg.c_b * cfg.r_x
            and plan.m_t * wl.d_a * plan.n_t * wl.d_b * plan.k_t
            < cfg.c_psum * cfg.r_x)


def dram_access(plan: PartitionPlan, cfg: HardwareConfig,
                wl: WorkloadSpec) -> list[tuple[str, int]]:
    """Costs of the strategies whose extra residency condition holds.

    RAF needs a whole A row strip in buffer A; RBF a whole B column strip in
    buffer B; RABE is unconditional.
    """
    out = []
    if plan.m_t * wl.k * wl.d_a < cfg.c_a * cfg.r_x:
        out.append((STRATEGY_RAF, wl.m_b * plan.t_m + wl.m_a))
    if plan.n_t * wl.k * wl.d_b < cfg.c_b * cfg.r_x:
        out.append((STRATEGY_RBF, wl.m_a * plan.t_n + wl.m_b))
    out.append((STRATEGY_RABE, wl.m_a * plan.t_n + wl.m_b * plan.t_m))
    return out


def _tile_candidates(dim: int, group: int) -> list[tuple[int, int]]:
    """Distinct (tile_dim, tile_count) pairs of ceil(dim / (group * t)), t>=1."""
    out = []
    t = 1
    while t <= dim:
        size = math.ceil(dim / (group * t))
        count = math.ceil(dim / (group * size))
        out.append((size, count))
        if size == 1:
            break
        # smallest t producing a strictly smaller tile
        t = math.ceil(dim / (group * (size - 1)))
    return out


def plan_partition(cfg: HardwareConfig, wl: WorkloadSpec) -> PartitionPlan:
    """Exhaustively search the tile-count lattice for minimal DRAM access.

    Ties break toward fewer total blocks, then RAF > RBF > RABE, then larger
    k_t (then m_t, n_t) so the result is fully deterministic.
    """
    if min(wl.m, wl.k, wl.n) <= 0:
        raise DegenerateInputError("workload dimensions must be positive")
    best = None
    best_key = None
    k_tiles = _tile_candidates(wl.k, 1)
    n_tiles = _tile_candidates(wl.n, cfg.g_nb)
    for m_t, t_m in _tile_candidates(wl.m, cfg.g_na):
        for k_t, t_k in k_tiles:
            # every constraint grows with n_t, so n_t = 1 bounds the pair
            if not feasible(PartitionPlan(t_m, t_k, 1, m_t, k_t, 1,
                                          STRATEGY_RABE, 0), cfg, wl):
                continue
            for n_t, t_n in n_tiles:
                trial = PartitionPlan(t_m, t_k, t_n, m_t, k_t, n_t,
                                      STRATEGY_RABE, 0)
                if not feasible(trial, cfg, wl):
                    continue
                for strategy, cost in dram_access(trial, cfg, wl):
                    key = (cost, t_m * t_k * t_n, _STRATEGY_RANK[strategy],
                           -k_t, -m_t, -n_t)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = replace(trial, strategy=strategy,
                                       predicted_dram=cost)
    if best is None:
        raise InfeasibleError(_name_violation(cfg, wl))
    return best


def _name_violation(cfg: HardwareConfig, wl: WorkloadSpec) -> str:
    if not 1 * 1 * wl.d_a < cfg.c_a * cfg.r_x:
        return ("infeasible even at unit tiles: buffer A constraint (1) "
                f"m_t*k_t*d_a < c_a*r_x fails ({wl.d_a} >= {cfg.c_a * cfg.r_x})")
    if not 1 * 1 * wl.d_b < cfg.c_b * cfg.r_x:
        return ("infeasible even at unit tiles: buffer B constraint (2) "
                f"k_t*n_t*d_b < c_b*r_x fails ({wl.d_b} >= {cfg.c_b * cfg.r_x})")
    return ("infeasible even at unit tiles: psum constraint (3) "
            f"m_t*d_a*n_t*d_b*k_t < c_psum*r_x fails "
            f"({wl.d_a * wl.d_b} >= {cfg.c_psum * cfg.r_x})")
