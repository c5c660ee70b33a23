"""Benchmark support: the paper's analytic model, table formatting, surfaces.

* :mod:`repro.bench.model` — the exact fitted equations of §4
  (``T_local = 11.5 X``; ``T_grid = 0.338 X + 53 + (62 + 5.3 X)/N``), their
  crossover analysis, and least-squares refits of the same functional forms
  to our simulated data;
* :mod:`repro.bench.tables` — paper-vs-measured table rendering shared by
  every benchmark;
* :mod:`repro.bench.surface` — Figure 5 surface generation.
"""

from repro.bench.model import (
    PaperModel,
    fit_grid_model,
    fit_local_model,
    grid_time,
    local_time,
)
from repro.bench.surface import SurfaceResult, compute_surfaces
from repro.bench.tables import ComparisonTable, format_seconds

__all__ = [
    "ComparisonTable",
    "PaperModel",
    "SurfaceResult",
    "compute_surfaces",
    "fit_grid_model",
    "fit_local_model",
    "format_seconds",
    "grid_time",
    "local_time",
]
