"""Minimal per-process bookkeeping analysis."""

from __future__ import annotations

import numpy as np

from repro.aida.hist1d import Histogram1D
from repro.aida.profile import Profile1D
from repro.aida.tree import ObjectTree
from repro.dataset.events import PROCESS_CODES, EventBatch
from repro.engine.base import Analysis


class EventCounterAnalysis(Analysis):
    """Counts events per process and tracks basic spectra.

    Outputs under ``/counts``: a process-code histogram (ground truth
    labels, useful for validating generator mixtures end to end through the
    whole grid pipeline), the particle multiplicity, the leading-particle
    energy spectrum, and a multiplicity-vs-energy profile.
    """

    name = "event-counter"

    def start(self, tree: ObjectTree) -> None:
        """Create the bookkeeping histograms."""
        n_codes = len(PROCESS_CODES)
        tree.put(
            "/counts/process",
            Histogram1D(
                "process", "Process code", bins=n_codes, lower=-0.5, upper=n_codes - 0.5
            ),
        )
        tree.put(
            "/counts/multiplicity",
            Histogram1D(
                "multiplicity", "Particles per event", bins=12, lower=-0.5, upper=11.5
            ),
        )
        tree.put(
            "/counts/leading_energy",
            Histogram1D(
                "leading_energy", "Leading particle energy [GeV]",
                bins=50, lower=0.0, upper=400.0,
            ),
        )
        tree.put(
            "/counts/mult_vs_energy",
            Profile1D(
                "mult_vs_energy",
                "Multiplicity vs leading energy",
                bins=20,
                lower=0.0,
                upper=400.0,
            ),
        )

    def process_batch(self, batch: EventBatch, tree: ObjectTree) -> None:
        """Vectorized bookkeeping for one chunk."""
        if len(batch) == 0:
            return
        tree.get("/counts/process").fill_array(batch.process.astype(float))
        counts = np.diff(batch.offsets).astype(float)
        tree.get("/counts/multiplicity").fill_array(counts)
        leading = batch.per_event_max(batch.e)
        tree.get("/counts/leading_energy").fill_array(leading)
        tree.get("/counts/mult_vs_energy").fill_array(leading, counts)


#: Stageable source form of the counter (sandbox-compatible).
SOURCE = '''
class StagedEventCounter(Analysis):
    """Counts events and particle multiplicities."""

    name = "event-counter"

    def start(self, tree):
        tree.put("/counts/process", Histogram1D(
            "process", "Process code", bins=4, lower=-0.5, upper=3.5))
        tree.put("/counts/multiplicity", Histogram1D(
            "multiplicity", "Particles per event", bins=12, lower=-0.5, upper=11.5))

    def process_batch(self, batch, tree):
        if len(batch) == 0:
            return
        tree.get("/counts/process").fill_array(batch.process.astype(float))
        tree.get("/counts/multiplicity").fill_array(
            np.diff(batch.offsets).astype(float))
'''
