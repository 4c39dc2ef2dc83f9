"""Seeded random matrices: desk-scale stand-ins for benchmark datasets."""

from __future__ import annotations

import numpy as np

from .matrices import DenseMatrix, TripletMatrix


def random_triplets(n_rows: int, n_cols: int, density: float,
                    rng: np.random.Generator,
                    values: str = "float") -> TripletMatrix:
    """Uniform-random coordinates at the target density, sorted; ``values``
    is ``float`` (uniform in [-1, 1)) or ``int`` (1..9, exact in float64)."""
    cells = n_rows * n_cols
    nnz = min(cells, max(0, round(density * cells)))
    flat = rng.choice(cells, size=nnz, replace=False)
    if values == "int":
        vals = rng.integers(1, 10, size=nnz).astype(np.float64)
    else:
        vals = rng.uniform(-1.0, 1.0, size=nnz)
    order = np.argsort(flat)  # distinct cells, so (row, col) order
    return TripletMatrix(n_rows, n_cols,
                         arrays=(*np.divmod(flat[order], n_cols), vals[order]))


def random_dense(n_rows: int, n_cols: int,
                 rng: np.random.Generator) -> DenseMatrix:
    return DenseMatrix(n_rows, n_cols, rng.uniform(-1.0, 1.0, (n_rows, n_cols)))
