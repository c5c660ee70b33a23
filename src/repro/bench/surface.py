"""Figure 5: analysis-time surfaces over dataset size and node count.

The paper's Figure 5 plots ``T_local(X, N)`` (flat in N) and
``T_grid(X, N)`` as surfaces, showing the grid (blue) dipping below the
local case (gold) for large datasets and node counts.  We regenerate the
same series from either the paper's analytic model or from full simulator
runs, and compute the crossover contour (the X below which local wins at
each N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.bench.model import PaperModel


@dataclass
class SurfaceResult:
    """Grids of local and grid times over (size, nodes).

    ``local`` and ``grid`` have shape ``(len(sizes), len(nodes))``;
    ``crossover_mb[j]`` is the dataset size where the grid starts winning
    at ``nodes[j]``.
    """

    sizes_mb: np.ndarray
    nodes: np.ndarray
    local: np.ndarray
    grid: np.ndarray
    crossover_mb: np.ndarray

    def grid_wins(self) -> np.ndarray:
        """Boolean mask where the grid is faster."""
        return self.grid < self.local

    def to_csv(self) -> str:
        """Long-format CSV: ``size_mb,nodes,local_s,grid_s`` per lattice point.

        Plot-ready form of Figure 5 for any external tool.
        """
        lines = ["size_mb,nodes,local_s,grid_s"]
        for i, size in enumerate(self.sizes_mb):
            for j, n in enumerate(self.nodes):
                lines.append(
                    f"{size:g},{int(n)},{self.local[i, j]:.3f},"
                    f"{self.grid[i, j]:.3f}"
                )
        return "\n".join(lines)

    def render_ascii(self, width_label: str = "X [MB]") -> str:
        """Text rendering: G where grid wins, L where local wins."""
        lines = [f"grid-vs-local ({width_label} down, N across)"]
        header = "        " + " ".join(f"{int(n):>4d}" for n in self.nodes)
        lines.append(header)
        wins = self.grid_wins()
        for i, size in enumerate(self.sizes_mb):
            cells = " ".join(
                f"{'G' if wins[i, j] else 'L':>4s}"
                for j in range(len(self.nodes))
            )
            lines.append(f"{size:7.1f} {cells}")
        return "\n".join(lines)


def compute_surfaces(
    sizes_mb: Sequence[float],
    nodes: Sequence[int],
    local_fn: Optional[Callable[[float], float]] = None,
    grid_fn: Optional[Callable[[float, int], float]] = None,
    model: PaperModel = PaperModel(),
) -> SurfaceResult:
    """Evaluate the two surfaces on a (sizes x nodes) lattice.

    By default the paper's analytic model supplies the times; pass
    ``local_fn(size)`` / ``grid_fn(size, nodes)`` to use simulator
    measurements instead (as ``bench_figure5.py`` does).
    """
    sizes = np.asarray(list(sizes_mb), dtype=float)
    node_array = np.asarray(list(nodes), dtype=float)
    if sizes.size == 0 or node_array.size == 0:
        raise ValueError("need at least one size and one node count")

    local = np.empty((sizes.size, node_array.size))
    grid = np.empty_like(local)
    for i, size in enumerate(sizes):
        local_value = (
            local_fn(float(size)) if local_fn is not None else model.local(size)
        )
        for j, n in enumerate(node_array):
            local[i, j] = local_value
            grid[i, j] = (
                grid_fn(float(size), int(n))
                if grid_fn is not None
                else model.grid(size, n)
            )

    crossover = np.empty(node_array.size)
    for j in range(node_array.size):
        wins = grid[:, j] < local[:, j]
        if not wins.any():
            crossover[j] = float("inf")
        elif wins.all():
            crossover[j] = float(sizes[0])
        else:
            first = int(np.argmax(wins))
            # Linear interpolation between the bracketing sizes.
            x0, x1 = sizes[first - 1], sizes[first]
            d0 = local[first - 1, j] - grid[first - 1, j]
            d1 = local[first, j] - grid[first, j]
            crossover[j] = float(x0 + (x1 - x0) * (-d0) / (d1 - d0))
    return SurfaceResult(
        sizes_mb=sizes,
        nodes=node_array,
        local=local,
        grid=grid,
        crossover_mb=crossover,
    )
