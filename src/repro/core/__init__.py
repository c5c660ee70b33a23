"""Top-level assembly: calibration, the simulated grid site, and experiments.

* :mod:`repro.core.config` — every calibrated constant of the timing model,
  with its provenance in the paper's tables;
* :mod:`repro.core.site` — :class:`~repro.core.site.GridSite`, which builds
  the full simulated deployment of Fig. 2 (network, nodes, scheduler, GRAM,
  security, every manager service) in one call;
* :mod:`repro.core.experiment` — the Table-1/Table-2 experiment drivers
  used by the benchmarks and examples.
"""

from repro.core.config import Calibration, DEFAULT_CALIBRATION
from repro.core.experiment import (
    GridBreakdown,
    LocalBreakdown,
    run_grid_experiment,
    run_local_experiment,
)
from repro.core.site import GridSite, SiteConfig

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "GridBreakdown",
    "GridSite",
    "LocalBreakdown",
    "SiteConfig",
    "run_grid_experiment",
    "run_local_experiment",
]
