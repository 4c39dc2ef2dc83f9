"""Adaptive tiling: a lattice search for the DRAM-minimal partition.

Tile dimensions must keep each A tile, B tile, and the per-PE psum estimate
inside the reserved fraction ``r_x`` of the corresponding buffer (strict
inequalities).  Three reuse strategies are costed:

* RAF (reuse A first) keeps a full A row strip resident and streams B once
  per strip: cost ``m_b * t_m + m_a``, available when a strip fits buffer A.
* RBF (reuse B first) mirrors it over B column strips: ``m_a * t_n + m_b``.
* RABE reloads both: ``m_a * t_n + m_b * t_m``, always available.

The candidate lattice enumerates tile counts (ceiling-divided tile sizes),
which keeps the space finite and covers ragged edges; costs depend only on
the strip counts ``t_m`` and ``t_n``, and feasibility is monotone in tile size.
The search first tries the root trial, one tile count on each side
(``t_m = t_k = t_n = 1``); when it fits it is the lattice's minimum, and no
lattice is built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, GridLimitError, InfeasibleError
from .matrices import check_density

OVERFLOW_FAIL = "fail"
OVERFLOW_SPILL = "spill"
STRATEGY_RAF = "RAF"
STRATEGY_RBF = "RBF"
STRATEGY_RABE = "RABE"
_STRATEGY_RANK = {STRATEGY_RAF: 0, STRATEGY_RBF: 1, STRATEGY_RABE: 2}
MAX_GROUPS = 64  # the paper's group bitmaps are 64 bits wide
_PLAN_FIELDS = ("t_m", "t_k", "t_n", "m_t", "k_t", "n_t", "strategy",
                "predicted_dram")


@dataclass(frozen=True)
class HardwareConfig:
    """Buffer capacities (element slots of the value stream), grid, widths.

    Defaults follow the 8x8 grid at 800 MHz with 2K-entry input buffers and a
    256-entry psum store per PE; original-format streams are 64/32/16-bit
    (value/index/length).  ``r_x`` reserves headroom against the uniform
    density assumption.  A psum store's rows get ``s`` address slots each
    (``None``: the tile width n_t); overflow spills or fails per policy.
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
    s: int | None = None
    overflow_policy: str = OVERFLOW_SPILL

    def __post_init__(self):
        if min(self.c_a, self.c_b, self.c_psum) < 1:
            raise ValueError("buffer capacities must be >= 1")
        if max(self.c_a, self.c_b, self.c_psum) > sys.float_info.max:
            raise ValueError("buffer capacities must not pass the largest float")
        if not 0 < self.r_x <= 1:
            raise ValueError("r_x must be in (0, 1]")
        if min(self.g_na, self.g_nb) < 1:
            raise ValueError("grid dims must be >= 1")
        for name in ("g_na", "g_nb"):
            if getattr(self, name) > MAX_GROUPS:
                raise GridLimitError(
                    f"{name}={getattr(self, name)} exceeds the {MAX_GROUPS}-group "
                    "limit of the 64-bit group bitmap")
        if min(self.bits_value, self.bits_index, self.bits_len) < 1:
            raise ValueError("stream bit widths must be >= 1")
        if not 0 < self.freq_hz < math.inf:
            raise ValueError("freq_hz must be positive and finite")
        if self.s is not None and self.s < 1:
            raise ValueError("segment size s must be >= 1")
        if self.overflow_policy not in (OVERFLOW_FAIL, OVERFLOW_SPILL):
            raise ValueError(f"unknown overflow policy {self.overflow_policy!r}")

    def sdmm_variant(self) -> "HardwareConfig":
        """Psum capacity doubles in SDMM mode (address-map buffers merged in)."""
        return replace(self, c_psum=2 * self.c_psum)

    def scaled_buffers(self, scale: float) -> "HardwareConfig":
        """Input buffers scale linearly, the psum buffer quadratically."""
        sizes = {"c_a": self.c_a * scale, "c_b": self.c_b * scale,
                 "c_psum": self.c_psum * scale * scale}
        for name, size in sizes.items():
            if not math.isfinite(size):
                raise ValueError(f"buffer scale {scale:g} gives {name}={size:g}:"
                                 " not a finite buffer size")
        return replace(self, **{name: max(1, round(size))
                                for name, size in sizes.items()})

    def with_grid(self, g_na: int, g_nb: int) -> "HardwareConfig":
        return replace(self, g_na=g_na, g_nb=g_nb)


@dataclass(frozen=True)
class WorkloadSpec:
    """Dims, densities, and total encoded storage (bits) of both operands.

    For a dense right operand every element is stored (``d_b`` = 1, no
    index/pointer streams).
    """

    m: int
    k: int
    n: int
    d_a: float
    d_b: float
    m_a: int
    m_b: int
    b_dense: bool = False

    @classmethod
    def from_dims(cls, m: int, k: int, n: int, d_a: float, d_b: float,
                  cfg: HardwareConfig, b_dense: bool = False) -> "WorkloadSpec":
        check_density("d_a", d_a)
        check_density("d_b", d_b)
        nnz_b = 0 if b_dense else round(k * n * d_b)
        spec = cls.from_counts(m, k, n, round(m * k * d_a), nnz_b, cfg, b_dense)
        return replace(spec, d_a=d_a, d_b=1.0 if b_dense else d_b)

    @classmethod
    def from_counts(cls, m: int, k: int, n: int, nnz_a: int, nnz_b: int,
                    cfg: HardwareConfig, b_dense: bool = False) -> "WorkloadSpec":
        """Exact spec for concrete matrices (densities derived from counts)."""
        if min(m, k, n) <= 0:
            raise DegenerateInputError(f"dimensions must be positive: {(m, k, n)}")
        if b_dense:  # every element stored, no index or pointer streams
            nnz_b = k * n
        return cls(m, k, n, nnz_a / (m * k), nnz_b / (k * n),
                   m_a=sparse_bits(nnz_a, k, cfg),
                   m_b=nnz_b * cfg.bits_value if b_dense
                   else sparse_bits(nnz_b, k, cfg), b_dense=b_dense)


def sparse_bits(nnz: int, ptr_len: int, cfg: HardwareConfig) -> int:
    """Full-width value and index per entry, one length per pointer."""
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

    def to_text(self) -> str:
        """Flat key=value record, one field per line."""
        return "".join(f"{k}={getattr(self, k)}\n" for k in _PLAN_FIELDS)

    @classmethod
    def from_text(cls, text: str) -> "PartitionPlan":
        """Parse a ``to_text`` record (``record_fields``); ValueError names a
        missing field, or the line and field of one unknown or not an int."""
        fields = {}
        for i, key, val in record_fields(text, "plan record", "field"):
            if key not in _PLAN_FIELDS:
                raise ValueError(f"plan record line {i}: {key}: unknown field")
            try:
                fields[key] = val if key == "strategy" else int(val)
            except ValueError:
                raise ValueError(f"plan record line {i}: {key}: expected an "
                                 f"integer, got {val!r}") from None
        missing = [name for name in _PLAN_FIELDS if name not in fields]
        if missing:
            raise ValueError(f"plan record is missing {', '.join(missing)}")
        if fields["strategy"] not in _STRATEGY_RANK:
            raise ValueError(f"plan record: unknown strategy {fields['strategy']!r}")
        return cls(**fields)


def record_fields(text: str, where: str, noun: str):
    """Yield (line number, name, value), both stripped, of each line of a
    config file or plan record; text after ``#`` is a comment.  ValueError
    names the line (``<where> line N``) with no ``=``, an empty name or a
    repeated name; the caller checks each line before the next is read, so
    the first fault wins."""
    first = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        name, sep, value = (part.strip() for part in line.partition("="))
        if not (sep and name):
            raise ValueError(f"{where} line {i}: expected {noun}=value")
        if name in first:
            raise ValueError(f"{where} line {i}: {name}: already given on "
                             f"line {first[name]}")
        first[name] = i
        yield i, name, value


_BUFFER_LABELS = ("buffer A constraint (1) m_t*k_t*d_a < c_a*r_x",
                  "buffer B constraint (2) k_t*n_t*d_b < c_b*r_x",
                  "psum constraint (3) m_t*d_a*n_t*d_b*k_t < c_psum*r_x")
_CHUNK_CELLS = 1 << 20  # lattice trials costed at once: bounds every array
_UNOFFERED = 2**63 - 1  # the cost of a strategy whose residency fails


def _buffer_loads(m_t, k_t, n_t, cfg: HardwareConfig, wl: WorkloadSpec):
    """One tile's expected (load, bound) in each ``_BUFFER_LABELS`` buffer, for
    ints or int64 arrays (exact integer products, then float: the same loads)."""
    return ((m_t * k_t * wl.d_a, cfg.c_a * cfg.r_x),
            (k_t * n_t * wl.d_b, cfg.c_b * cfg.r_x),
            (m_t * wl.d_a * n_t * wl.d_b * k_t, cfg.c_psum * cfg.r_x))


def _strategies(m_t, n_t, t_m, t_n, cfg: HardwareConfig, wl: WorkloadSpec):
    """(name, residency condition, cost) of RAF, RBF, RABE, for ints or arrays."""
    return ((STRATEGY_RAF, m_t * wl.k * wl.d_a < cfg.c_a * cfg.r_x,
             wl.m_b * t_m + wl.m_a),
            (STRATEGY_RBF, n_t * wl.k * wl.d_b < cfg.c_b * cfg.r_x,
             wl.m_a * t_n + wl.m_b),
            (STRATEGY_RABE, True, wl.m_a * t_n + wl.m_b * t_m))


def dram_access(plan: PartitionPlan, cfg: HardwareConfig,
                wl: WorkloadSpec) -> list[tuple[str, int]]:
    """Costs of the strategies whose residency condition holds."""
    return [(name, cost) for name, resident, cost in _strategies(
        plan.m_t, plan.n_t, plan.t_m, plan.t_n, cfg, wl) if resident]


def _tile_candidates(dim: int, group: int) -> np.ndarray:
    """Distinct (tile_dim, tile_count) pairs of ceil(dim / (group * t)), t>=1,
    largest tile first, as the rows of a (2, N) int64 array.

    The tiles are ceil(full / t) with ``full = ceil(dim / group)``.  While
    t(t - 1) <= full each t gives a tile smaller than the last, whose count
    is t; every smaller size v is then some t's tile, with count
    ceil(full / v), since [full / v, full / (v - 1)) is at least 1 wide."""
    full = (dim - 1) // group + 1
    last = math.isqrt(full) + 1
    last -= last * (last - 1) > full
    count = np.arange(1, last + 1, dtype=np.int64)
    small = np.arange((full - 1) // last, 0, -1, dtype=np.int64)
    return np.array((np.concatenate(((full - 1) // count + 1, small)),
                     np.concatenate((count, (full - 1) // small + 1))))


def plan_partition(cfg: HardwareConfig, wl: WorkloadSpec) -> PartitionPlan:
    """Search the (m_t, k_t, n_t) lattice for minimal DRAM access.

    Ties break toward fewer blocks, then RAF > RBF > RABE, then larger k_t
    (then m_t, n_t).  The root trial, ``t_m = t_k = t_n = 1``, is costed
    first, with Python ints; when its three loads fit it is the tie key's
    minimum over the whole lattice, since
    * every cost is at least ``m_a + m_b`` (both > 0), reached only at
      t_m = t_n = 1;
    * only t_k = 1 as well gives one block;
    * RAF's residency ``m_t*k*d_a < c_a*r_x`` is constraint (1) at k_t = k.
    Otherwise no cost reads k_t, so each (m_t, n_t) pair is costed at its
    largest feasible k_t only.  The lattice is broadcast in blocks of at
    most ``_CHUNK_CELLS`` trials (or one pair's k candidates)."""
    if min(wl.m, wl.k, wl.n) <= 0:
        raise DegenerateInputError("workload dimensions must be positive")
    m_t, n_t = -(-wl.m // cfg.g_na), -(-wl.n // cfg.g_nb)  # root tiles, top counts
    top = max(wl.m_a * n_t + wl.m_b * m_t, m_t * wl.k * n_t)  # cost, t_m*t_k*t_n
    if top >= _UNOFFERED:
        raise DegenerateInputError(f"plan of (m, k, n)={(wl.m, wl.k, wl.n)} needs "
                                   f"costs or block counts up to {top}, past int64")
    if all(load < bound for load, bound in _buffer_loads(m_t, wl.k, n_t, cfg, wl)):
        return PartitionPlan(1, 1, 1, m_t, wl.k, n_t, STRATEGY_RAF, wl.m_a + wl.m_b)
    m_tiles, k_tiles, n_tiles = (_tile_candidates(*arg) for arg in (
        (wl.m, cfg.g_na), (wl.k, 1), (wl.n, cfg.g_nb)))  # (dims, counts) rows
    n_step = min(n_tiles.shape[1], max(1, _CHUNK_CELLS // k_tiles.shape[1]))
    m_step = max(1, _CHUNK_CELLS // (n_step * k_tiles.shape[1]))
    best = [key for m in range(0, m_tiles.shape[1], m_step)
            for n in range(0, n_tiles.shape[1], n_step) if (key := _cheapest(
                m_tiles[:, m:m + m_step], k_tiles, n_tiles[:, n:n + n_step], cfg, wl))]
    if not best:
        raise InfeasibleError(_name_violation(cfg, wl))
    cost, _, rank, k_t, m_t, n_t, t_m, t_k, t_n = min(best)
    return PartitionPlan(t_m, t_k, t_n, -m_t, -k_t, -n_t,
                         tuple(_STRATEGY_RANK)[rank], cost)


def _cheapest(m_c, k_c, n_c, cfg: HardwareConfig, wl: WorkloadSpec):
    """Tie key, then (t_m, t_k, t_n), of the best trial over (tile dims, tile
    counts) candidate rows, each (m_t, n_t) at its largest feasible k_t, or None."""
    (a, a_max), (b, b_max), (p, p_max) = _buffer_loads(
        m_c[0, :, None, None], k_c[0], n_c[0, :, None], cfg, wl)
    fits = (a < a_max) & (b < b_max) & (p < p_max)  # over (m_t, n_t, k_t)
    m_i, n_i = np.nonzero(fits.any(axis=2))
    if not len(m_i):
        return None
    k_i = fits.argmax(axis=2)[m_i, n_i]  # k candidates run largest first
    (m_t, t_m), (k_t, t_k), (n_t, t_n) = m_c[:, m_i], k_c[:, k_i], n_c[:, n_i]
    _, resident, costs = zip(*_strategies(m_t, n_t, t_m, t_n, cfg, wl))
    cost = np.where(np.broadcast_arrays(*resident), costs, _UNOFFERED)
    rank, i = np.nonzero(cost == cost.min())  # the tie key's first column
    keys = (cost[rank, i], (t_m * t_k * t_n)[i], rank, -k_t[i], -m_t[i], -n_t[i],
            t_m[i], t_k[i], t_n[i])
    win = np.lexsort(keys[5::-1])[0]
    return tuple(int(key[win]) for key in keys)


def _name_violation(cfg: HardwareConfig, wl: WorkloadSpec) -> str:
    """Name the buffer constraint that unit tiles break: A, else B, else psum."""
    loads = _buffer_loads(1, 1, 1, cfg, wl)
    i = next((i for i, (load, bound) in enumerate(loads[:2]) if not load < bound), 2)
    return (f"infeasible even at unit tiles: {_BUFFER_LABELS[i]} fails "
            f"({loads[i][0]} >= {loads[i][1]})")
