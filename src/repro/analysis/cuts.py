"""Tunable selection-cut analysis for the interactive fine-tuning loop.

The point of interactivity (§1) is "to fine tune an analysis ... while
making incremental changes".  This analysis exposes its cut values as
constructor parameters, so the client can stop the run, adjust a cut,
reload, rewind, and rerun — the exact workflow of
``examples/interactive_rerun.py``.
"""

from __future__ import annotations

import numpy as np

from repro.aida.hist1d import Histogram1D
from repro.aida.tree import ObjectTree
from repro.dataset.events import EventBatch
from repro.engine.base import Analysis


class SelectionCutAnalysis(Analysis):
    """Pass/fail accounting for an energy-window selection.

    Parameters
    ----------
    min_energy, max_energy:
        Window on the event's total visible energy in GeV.
    min_multiplicity:
        Minimum particle count.
    """

    name = "selection-cuts"

    def __init__(
        self,
        min_energy: float = 0.0,
        max_energy: float = float("inf"),
        min_multiplicity: int = 0,
    ) -> None:
        if min_energy > max_energy:
            raise ValueError("min_energy must be <= max_energy")
        self.min_energy = float(min_energy)
        self.max_energy = float(max_energy)
        self.min_multiplicity = int(min_multiplicity)

    def start(self, tree: ObjectTree) -> None:
        """Create the pass/fail and spectrum histograms."""
        tree.put(
            "/cuts/decision",
            Histogram1D("decision", "0=fail 1=pass", bins=2, lower=-0.5, upper=1.5),
        )
        tree.put(
            "/cuts/energy_pass",
            Histogram1D(
                "energy_pass", "Visible energy (passing) [GeV]",
                bins=60, lower=0.0, upper=600.0,
            ),
        )
        tree.put(
            "/cuts/energy_fail",
            Histogram1D(
                "energy_fail", "Visible energy (failing) [GeV]",
                bins=60, lower=0.0, upper=600.0,
            ),
        )

    def process_batch(self, batch: EventBatch, tree: ObjectTree) -> None:
        """Vectorized pass/fail classification of one chunk."""
        if len(batch) == 0:
            return
        counts = np.diff(batch.offsets)
        visible = batch.per_event_sum(batch.e)
        passing = (
            (visible >= self.min_energy)
            & (visible <= self.max_energy)
            & (counts >= self.min_multiplicity)
        )
        tree.get("/cuts/decision").fill_array(passing.astype(float))
        tree.get("/cuts/energy_pass").fill_array(visible[passing])
        tree.get("/cuts/energy_fail").fill_array(visible[~passing])

    def efficiency(self, tree: ObjectTree) -> float:
        """Fraction of processed events passing the cuts (NaN if none)."""
        decision = tree.get("/cuts/decision")
        total = decision.entries
        if total == 0:
            return float("nan")
        return decision.bin_height(1) / total


#: Stageable source form with the cut as a parameter; the interactive
#: example re-stages this with different ``min_energy`` values.
SOURCE = '''
class StagedSelectionCuts(Analysis):
    """Energy-window selection with tunable cuts."""

    name = "selection-cuts"

    def __init__(self, min_energy=0.0, max_energy=1e12, min_multiplicity=0):
        self.min_energy = float(min_energy)
        self.max_energy = float(max_energy)
        self.min_multiplicity = int(min_multiplicity)

    def start(self, tree):
        tree.put("/cuts/decision", Histogram1D(
            "decision", "0=fail 1=pass", bins=2, lower=-0.5, upper=1.5))
        tree.put("/cuts/energy_pass", Histogram1D(
            "energy_pass", "Visible energy (passing) [GeV]",
            bins=60, lower=0.0, upper=600.0))

    def process_batch(self, batch, tree):
        if len(batch) == 0:
            return
        counts = np.diff(batch.offsets)
        # Exact: bit for bit the sum of each event's slice,
        # so staged == native trees.
        visible = batch.per_event_sum(batch.e)
        passing = ((visible >= self.min_energy)
                   & (visible <= self.max_energy)
                   & (counts >= self.min_multiplicity))
        tree.get("/cuts/decision").fill_array(passing.astype(float))
        tree.get("/cuts/energy_pass").fill_array(visible[passing])
'''
