"""In-process execution: one engine over one batch, no grid.

The reference the distributed result is compared with (the merged tree of
a session must equal what one engine computes over the whole dataset) and
the compute half of the local-workflow baseline of Table 1.
"""

from __future__ import annotations

from repro.aida.tree import ObjectTree
from repro.dataset.events import Events
from repro.engine.engine import AnalysisEngine
from repro.engine.sandbox import CodeBundle


def run_local(
    bundle: CodeBundle,
    batch: Events,
    chunk_events: int = 2000,
) -> ObjectTree:
    """Run one analysis over a batch in-process; returns the result tree."""
    engine = AnalysisEngine("local", chunk_events=chunk_events)
    engine.load_data(batch)
    engine.load_analysis(bundle.instantiate())
    engine.run_to_completion()
    return engine.tree
