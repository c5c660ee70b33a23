"""ASCII rendering of analysis objects for the headless client dashboard.

The JAS3 client displayed live-updating histogram plots (Fig. 4); our
headless client renders the same content as terminal text: vertical bar
charts for 1-D histograms/profiles and a density grid for 2-D histograms.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.aida.hist1d import Histogram1D
from repro.aida.hist2d import Histogram2D
from repro.aida.profile import Profile1D

#: Characters from light to dark for 2-D density cells.
_SHADES = " .:-=+*#%@"


def render_hist1d(
    hist: Histogram1D,
    width: int = 60,
    height: int = 12,
    show_stats: bool = True,
) -> str:
    """Render a 1-D histogram as a vertical-bar ASCII chart.

    Bins are resampled onto ``width`` columns (summing weights) and scaled
    to ``height`` text rows.
    """
    if width < 4 or height < 2:
        raise ValueError("width must be >= 4 and height >= 2")
    heights = hist.heights()
    bins = heights.size
    columns = min(width, bins)
    # Aggregate adjacent bins into columns.
    edges = np.linspace(0, bins, columns + 1).astype(int)
    col_values = np.array(
        [heights[edges[i]:edges[i + 1]].sum() for i in range(columns)]
    )
    peak = col_values.max() if col_values.size and col_values.max() > 0 else 1.0

    rows: List[str] = []
    for level in range(height, 0, -1):
        threshold = peak * (level - 0.5) / height
        line = "".join("█" if v >= threshold else " " for v in col_values)
        rows.append(f"|{line}|")
    axis_line = f"+{'-' * columns}+"
    lo = f"{hist.axis.lower_edge:g}"
    hi = f"{hist.axis.upper_edge:g}"
    pad = max(1, columns + 2 - len(lo) - len(hi))
    label = lo + " " * pad + hi
    lines = [hist.title, *rows, axis_line, label]
    if show_stats:
        lines.append(
            f"entries={hist.entries}  mean={hist.mean:.4g}  "
            f"rms={hist.rms:.4g}  max={hist.max_bin_height:g}"
        )
    return "\n".join(lines)


def render_hist2d(hist: Histogram2D, max_cells: int = 40) -> str:
    """Render a 2-D histogram as a shaded density grid."""
    grid = hist.heights()
    x_bins, y_bins = grid.shape
    x_cells = min(max_cells, x_bins)
    y_cells = min(max_cells // 2, y_bins)
    x_edges = np.linspace(0, x_bins, x_cells + 1).astype(int)
    y_edges = np.linspace(0, y_bins, y_cells + 1).astype(int)
    cells = np.zeros((x_cells, y_cells))
    for i in range(x_cells):
        for j in range(y_cells):
            cells[i, j] = grid[
                x_edges[i]:x_edges[i + 1], y_edges[j]:y_edges[j + 1]
            ].sum()
    peak = cells.max() if cells.max() > 0 else 1.0
    lines = [hist.title]
    # Highest y at the top.
    for j in range(y_cells - 1, -1, -1):
        row = "".join(
            _SHADES[min(int(cells[i, j] / peak * (len(_SHADES) - 1)), len(_SHADES) - 1)]
            for i in range(x_cells)
        )
        lines.append(f"|{row}|")
    lines.append(f"+{'-' * x_cells}+")
    lines.append(f"entries={hist.entries}")
    return "\n".join(lines)


def render_profile(profile: Profile1D, width: int = 60, height: int = 10) -> str:
    """Render a profile's bin means as an ASCII chart (NaN bins blank)."""
    heights = profile.heights()
    finite = heights[np.isfinite(heights)]
    if finite.size == 0:
        return f"{profile.title}\n(empty profile)"
    lo, hi = float(finite.min()), float(finite.max())
    if hi <= lo:
        hi = lo + 1.0
    bins = heights.size
    columns = min(width, bins)
    edges = np.linspace(0, bins, columns + 1).astype(int)
    col_vals = []
    for i in range(columns):
        chunk = heights[edges[i]:edges[i + 1]]
        chunk = chunk[np.isfinite(chunk)]
        col_vals.append(float(chunk.mean()) if chunk.size else float("nan"))
    rows: List[str] = []
    for level in range(height, 0, -1):
        threshold = lo + (hi - lo) * (level - 0.5) / height
        line = "".join(
            "█" if np.isfinite(v) and v >= threshold else " " for v in col_vals
        )
        rows.append(f"|{line}|")
    lines = [profile.title, *rows, f"+{'-' * columns}+"]
    lines.append(f"entries={profile.entries}  y-range=[{lo:.4g}, {hi:.4g}]")
    return "\n".join(lines)


def render_object(obj: object, **kwargs) -> str:
    """Dispatch rendering on object type (fallback: ``repr``)."""
    if isinstance(obj, Histogram1D):
        return render_hist1d(obj, **kwargs)
    if isinstance(obj, Histogram2D):
        return render_hist2d(obj, **kwargs)
    if isinstance(obj, Profile1D):
        return render_profile(obj, **kwargs)
    return repr(obj)
