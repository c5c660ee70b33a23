"""The Higgs-boson search: dijet invariant mass over background.

Reconstructs e+e- -> ZH -> four jets: among the three ways to pair four
jets into two dijets, pick the pairing whose better dijet is closest to the
Z mass; the *other* dijet is the Higgs candidate.  Signal events pile up at
m_H = 120 GeV over the WW / ZZ / qq combinatorial background.

Outputs (under ``/higgs``): the candidate mass spectrum (the headline
histogram of Fig. 4), the Z-candidate mass, jet multiplicity, total visible
energy, and a 2-D Z-vs-H mass correlation.

Fully vectorized, the class and its staged ``SOURCE`` twin alike: visible
energy comes from :meth:`EventBatch.per_event_sum` (exact, so both fill
bit-identical histograms) and the four-jet events of a chunk are
processed as (n, 4) arrays; no per-event Python loop.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.aida.hist1d import Histogram1D
from repro.aida.hist2d import Histogram2D
from repro.aida.tree import ObjectTree
from repro.dataset.events import EventBatch
from repro.dataset.physics import MASS_Z
from repro.engine.base import Analysis

#: The three ways to split jets {0,1,2,3} into two pairs.
_PAIRINGS: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...] = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


class HiggsSearchAnalysis(Analysis):
    """Dijet Higgs search over four-jet events.

    Parameters
    ----------
    mass_bins, mass_low, mass_high:
        Binning of the candidate-mass histograms.
    min_visible_energy:
        Selection cut on the event's total visible energy in GeV (rejects
        radiative-return qq background); this is the knob the interactive
        fine-tuning example adjusts.
    """

    name = "higgs-search"

    def __init__(
        self,
        mass_bins: int = 60,
        mass_low: float = 40.0,
        mass_high: float = 200.0,
        min_visible_energy: float = 0.0,
    ) -> None:
        self.mass_bins = int(mass_bins)
        self.mass_low = float(mass_low)
        self.mass_high = float(mass_high)
        self.min_visible_energy = float(min_visible_energy)

    def start(self, tree: ObjectTree) -> None:
        """Create the output histograms."""
        tree.put(
            "/higgs/dijet_mass",
            Histogram1D(
                "dijet_mass",
                "Higgs candidate dijet mass [GeV]",
                bins=self.mass_bins,
                lower=self.mass_low,
                upper=self.mass_high,
            ),
        )
        tree.put(
            "/higgs/z_mass",
            Histogram1D(
                "z_mass",
                "Z candidate dijet mass [GeV]",
                bins=self.mass_bins,
                lower=self.mass_low,
                upper=self.mass_high,
            ),
        )
        tree.put(
            "/higgs/n_jets",
            Histogram1D("n_jets", "Jet multiplicity", bins=10, lower=-0.5, upper=9.5),
        )
        tree.put(
            "/higgs/visible_energy",
            Histogram1D(
                "visible_energy",
                "Total visible energy [GeV]",
                bins=60,
                lower=0.0,
                upper=600.0,
            ),
        )
        tree.put(
            "/higgs/mass_correlation",
            Histogram2D(
                "mass_correlation",
                "Z mass vs Higgs candidate mass",
                x_bins=40,
                x_lower=self.mass_low,
                x_upper=self.mass_high,
                y_bins=40,
                y_lower=self.mass_low,
                y_upper=self.mass_high,
            ),
        )

    def process_batch(self, batch: EventBatch, tree: ObjectTree) -> None:
        """Vectorized processing of one chunk of events."""
        if len(batch) == 0:
            return
        counts = np.diff(batch.offsets)
        tree.get("/higgs/n_jets").fill_array(counts.astype(float))

        visible = batch.per_event_sum(batch.e)
        tree.get("/higgs/visible_energy").fill_array(visible)

        selected = (counts == 4) & (visible >= self.min_visible_energy)
        if not np.any(selected):
            return
        indices = np.nonzero(selected)[0]
        starts = batch.offsets[indices].astype(int)
        # Gather the four jets of each selected event: shape (n, 4).
        gather = starts[:, None] + np.arange(4)[None, :]
        e = batch.e[gather]
        px = batch.px[gather]
        py = batch.py[gather]
        pz = batch.pz[gather]

        def dijet_mass(a: int, b: int) -> np.ndarray:
            se = e[:, a] + e[:, b]
            sx = px[:, a] + px[:, b]
            sy = py[:, a] + py[:, b]
            sz = pz[:, a] + pz[:, b]
            return np.sqrt(np.clip(se * se - sx * sx - sy * sy - sz * sz, 0, None))

        # All six dijet masses, organized per pairing.
        pair_masses = np.empty((len(indices), 3, 2))
        for p_index, (pair_a, pair_b) in enumerate(_PAIRINGS):
            pair_masses[:, p_index, 0] = dijet_mass(*pair_a)
            pair_masses[:, p_index, 1] = dijet_mass(*pair_b)

        # For each pairing, which of its two dijets is closer to the Z?
        dz = np.abs(pair_masses - MASS_Z)
        closer = np.argmin(dz, axis=2)  # (n, 3)
        best_dz = np.take_along_axis(dz, closer[:, :, None], axis=2)[:, :, 0]
        # Pick the pairing with the best Z candidate.
        best_pairing = np.argmin(best_dz, axis=1)  # (n,)
        row = np.arange(len(indices))
        z_slot = closer[row, best_pairing]
        z_mass = pair_masses[row, best_pairing, z_slot]
        h_mass = pair_masses[row, best_pairing, 1 - z_slot]

        tree.get("/higgs/z_mass").fill_array(z_mass)
        tree.get("/higgs/dijet_mass").fill_array(h_mass)
        tree.get("/higgs/mass_correlation").fill_array(h_mass, z_mass)


#: Source form of this analysis, stageable through the code loader exactly
#: like user-written code (uses only the sandbox-provided names).  Its byte
#: length is what ``CodeBundle.size_kb`` charges the stage-code transfer, so
#: an edit that changes the length moves every session's simulated time.
SOURCE = '''
class StagedHiggsSearch(Analysis):
    """Dijet Higgs search (staged-source edition)."""

    name = "higgs-search"

    def __init__(self, min_visible_energy=0.0, mass_bins=60,
                 mass_low=40.0, mass_high=200.0):
        self.min_visible_energy = float(min_visible_energy)
        self.mass_bins = int(mass_bins)
        self.mass_low = float(mass_low)
        self.mass_high = float(mass_high)

    def start(self, tree):
        tree.put("/higgs/dijet_mass", Histogram1D(
            "dijet_mass", "Higgs candidate dijet mass [GeV]",
            bins=self.mass_bins, lower=self.mass_low, upper=self.mass_high))
        tree.put("/higgs/z_mass", Histogram1D(
            "z_mass", "Z candidate dijet mass [GeV]",
            bins=self.mass_bins, lower=self.mass_low, upper=self.mass_high))
        tree.put("/higgs/visible_energy", Histogram1D(
            "visible_energy", "Total visible energy [GeV]",
            bins=60, lower=0.0, upper=600.0))

    def process_batch(self, batch, tree):
        if len(batch) == 0:
            return
        counts = np.diff(batch.offsets)
        # Exact: bit for bit the sum of each event's slice,
        # so staged == native trees.
        visible = batch.per_event_sum(batch.e)
        tree.get("/higgs/visible_energy").fill_array(visible)
        selected = (counts == 4) & (visible >= self.min_visible_energy)
        if not np.any(selected):
            return
        starts = batch.offsets[np.nonzero(selected)[0]].astype(int)
        gather = starts[:, None] + np.arange(4)[None, :]
        e, px = batch.e[gather], batch.px[gather]
        py, pz = batch.py[gather], batch.pz[gather]

        def dijet(a, b):
            se = e[:, a] + e[:, b]
            sx = px[:, a] + px[:, b]
            sy = py[:, a] + py[:, b]
            sz = pz[:, a] + pz[:, b]
            return np.sqrt(np.clip(se * se - sx * sx - sy * sy - sz * sz, 0, None))

        pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
        masses = np.stack(
            [np.stack([dijet(*pa), dijet(*pb)], axis=1) for pa, pb in pairings],
            axis=1,
        )
        dz = np.abs(masses - 91.1876)
        closer = np.argmin(dz, axis=2)
        best_dz = np.take_along_axis(dz, closer[:, :, None], axis=2)[:, :, 0]
        best = np.argmin(best_dz, axis=1)
        row = np.arange(masses.shape[0])
        z_slot = closer[row, best]
        tree.get("/higgs/z_mass").fill_array(masses[row, best, z_slot])
        tree.get("/higgs/dijet_mass").fill_array(masses[row, best, 1 - z_slot])
'''
