"""The Higgs-boson search: dijet invariant mass over background.

Reconstructs e+e- -> ZH -> four jets: among the three ways to pair four
jets into two dijets, pick the pairing whose better dijet is closest to the
Z mass; the *other* dijet is the Higgs candidate.  Signal events pile up at
m_H = 120 GeV over the WW / ZZ / qq combinatorial background.

Outputs (under ``/higgs``): the candidate mass spectrum (the headline
histogram of Fig. 4), the Z-candidate mass and the total visible energy;
``min_visible_energy`` is the selection cut that rejects radiative-return
qq background.

Fully vectorized: visible energy is :meth:`EventBatch.per_event_sum`
(exact) and a chunk's six dijets per four-jet event are one pass of (n, 6)
gathers: no per-event Python loop, no numpy call per dijet.
"""

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
        # The six dijets in one pass: pairings (0,1)(2,3), (0,2)(1,3) and
        # (0,3)(1,2), each jet a of a dijet gathered beside its jet b.
        a = starts[:, None] + [0, 2, 0, 1, 0, 1]
        b = starts[:, None] + [1, 3, 2, 3, 3, 2]
        se = batch.e[a] + batch.e[b]
        sx = batch.px[a] + batch.px[b]
        sy = batch.py[a] + batch.py[b]
        sz = batch.pz[a] + batch.pz[b]
        m2 = se * se - sx * sx - sy * sy - sz * sz
        # (n, pairing, slot): which pairing, and which of its two dijets.
        masses = np.sqrt(np.clip(m2, 0, None)).reshape(-1, 3, 2)
        dz = np.abs(masses - 91.1876)
        closer = np.argmin(dz, axis=2)
        # dz >= 0 so the smaller one is the value at its argmin,
        # ties, NaN too.
        best = np.argmin(np.minimum(dz[:, :, 0], dz[:, :, 1]), axis=1)
        row = np.arange(masses.shape[0])
        z_slot = closer[row, best]
        tree.get("/higgs/z_mass").fill_array(masses[row, best, z_slot])
        tree.get("/higgs/dijet_mass").fill_array(masses[row, best, 1 - z_slot])
'''
