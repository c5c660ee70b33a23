"""Tunable selection-cut analysis for the interactive fine-tuning loop.

The point of interactivity (§1) is "to fine tune an analysis ... while
making incremental changes".  This analysis exposes its cut values as
constructor parameters, so the client can stop the run, adjust a cut,
reload, rewind, and rerun — the exact workflow of
``examples/interactive_rerun.py``.

Outputs under ``/cuts``: the pass/fail decision (bin 1 over entries is the
selection efficiency) and the visible-energy spectrum of passing events.
"""

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
