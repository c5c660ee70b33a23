"""The paper's analytic cost model (§4) and refits of our simulated data.

The paper fits, from its measurements (X = dataset MB, N = nodes)::

    T_local = 6.2 X + 5.3 X            = 11.5 X
    T_grid  = 0.13 X + 0.25 X + (46 + 62/N) + 7 + 5.3 X / N
            = 0.338 X + 53 + (62 + 5.3 X) / N      [paper's printed form]

(The printed 0.338 coefficient does not equal 0.13 + 0.25; we keep the
printed form as the canonical "paper model" and note the discrepancy in
EXPERIMENTS.md.)

Conclusions the paper draws — reproduced in ``bench_equations.py`` and
``bench_figure5.py``:

1. for large datasets (≫ ~10 MB) the WAN transfer dominates the local case
   (6.2 X vs 0.34 X), so the grid wins;
2. for long analyses the grid gives a 1/N speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class PaperModel:
    """Coefficients of the §4 equations (defaults = the paper's values)."""

    local_per_mb: float = 11.5
    grid_per_mb: float = 0.338
    grid_fixed: float = 53.0
    grid_per_node_fixed: float = 62.0
    grid_per_node_per_mb: float = 5.3

    def local(self, x_mb) -> np.ndarray:
        """``T_local(X)`` in seconds."""
        return self.local_per_mb * np.asarray(x_mb, dtype=float)

    def grid(self, x_mb, n_nodes) -> np.ndarray:
        """``T_grid(X, N)`` in seconds."""
        x = np.asarray(x_mb, dtype=float)
        n = np.asarray(n_nodes, dtype=float)
        return (
            self.grid_per_mb * x
            + self.grid_fixed
            + (self.grid_per_node_fixed + self.grid_per_node_per_mb * x) / n
        )

    def crossover_size(self, n_nodes: float) -> float:
        """Dataset size where grid and local cost the same, for N nodes.

        Solves ``local(X) == grid(X, N)`` for X; the grid wins above it.
        """
        n = float(n_nodes)
        # a X = b X + c + (d + e X)/n  ->  X (a - b - e/n) = c + d/n
        denominator = (
            self.local_per_mb - self.grid_per_mb - self.grid_per_node_per_mb / n
        )
        if denominator <= 0:
            return float("inf")
        return (self.grid_fixed + self.grid_per_node_fixed / n) / denominator


def local_time(x_mb, model: PaperModel = PaperModel()) -> np.ndarray:
    """Paper-model local analysis time."""
    return model.local(x_mb)


def grid_time(x_mb, n_nodes, model: PaperModel = PaperModel()) -> np.ndarray:
    """Paper-model grid analysis time."""
    return model.grid(x_mb, n_nodes)


def fit_local_model(
    sizes_mb: Sequence[float], times_s: Sequence[float]
) -> Tuple[float, float]:
    """Fit ``T = a X`` to measured local times; returns (a, rms residual)."""
    x = np.asarray(sizes_mb, dtype=float)
    y = np.asarray(times_s, dtype=float)
    if x.size < 1:
        raise ValueError("need at least one measurement")
    a = float(np.dot(x, y) / np.dot(x, x))
    residual = float(np.sqrt(np.mean((y - a * x) ** 2))) if x.size > 1 else 0.0
    return a, residual


def fit_grid_model(
    sizes_mb: Sequence[float],
    nodes: Sequence[float],
    times_s: Sequence[float],
) -> Tuple[PaperModel, float]:
    """Fit the paper's grid functional form to measured (X, N, T) triples.

    ``T = b X + c + (d + e X)/N`` — linear in the coefficients, solved by
    least squares.  Returns the fitted model (with the paper's local
    coefficient retained) and the RMS residual.
    """
    x = np.asarray(sizes_mb, dtype=float)
    n = np.asarray(nodes, dtype=float)
    y = np.asarray(times_s, dtype=float)
    if not (x.shape == n.shape == y.shape):
        raise ValueError("inputs must have matching shapes")
    if x.size < 4:
        raise ValueError("need at least 4 measurements for 4 coefficients")
    design = np.column_stack([x, np.ones_like(x), 1.0 / n, x / n])
    coefficients, *_ = np.linalg.lstsq(design, y, rcond=None)
    b, c, d, e = map(float, coefficients)
    fitted = PaperModel(
        grid_per_mb=b,
        grid_fixed=c,
        grid_per_node_fixed=d,
        grid_per_node_per_mb=e,
    )
    residual = float(np.sqrt(np.mean((design @ coefficients - y) ** 2)))
    return fitted, residual
