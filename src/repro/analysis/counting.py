"""Minimal per-process bookkeeping analysis.

Outputs under ``/counts``: a process-code histogram (ground-truth labels,
useful for validating generator mixtures end to end through the whole grid
pipeline) and the particle multiplicity.
"""

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
