"""The user-analysis contract.

Analysis code "should take the records of the dataset as input and run the
analysis" (§2.4).  Users subclass :class:`Analysis` and implement
:meth:`Analysis.process_batch`, which takes a chunk of records as one
columnar :class:`~repro.dataset.events.EventBatch` (numpy arrays); results
go into the engine-local AIDA :class:`~repro.aida.tree.ObjectTree`, which
the framework merges across engines.
"""

from __future__ import annotations

from repro.aida.tree import ObjectTree
from repro.dataset.events import EventBatch


class AnalysisError(Exception):
    """Raised when user analysis code misbehaves."""


class Analysis:
    """Base class for user analysis code.

    Lifecycle (driven by the engine):

    1. :meth:`start` — once per run (and again after a rewind); create the
       histograms here;
    2. :meth:`process_batch` — once per chunk of events (required);
    3. :meth:`end` — once when the dataset part is exhausted.

    Attributes
    ----------
    name:
        Identifier shown in session listings.
    version:
        Bumped by the code loader on hot reload so engines can report which
        version produced a snapshot.
    """

    name: str = "analysis"
    version: int = 1

    def start(self, tree: ObjectTree) -> None:
        """Create output objects; called at run start and after rewind."""

    def process_batch(self, batch: EventBatch, tree: ObjectTree) -> None:
        """Process a chunk of events; every analysis overrides this."""
        raise NotImplementedError(
            f"{type(self).__name__} must override process_batch"
        )

    def end(self, tree: ObjectTree) -> None:
        """Finalize (fits, summaries) after the last event."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} v{self.version}>"
