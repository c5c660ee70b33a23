"""Production batch mode: the workflow interactive tuning graduates into.

§1: interactivity exists "to fine tune an analysis that may eventually
become a production batch analysis".  This module closes that loop: a
finalized analysis + dataset run end-to-end with no client in the loop —
engines submitted on the ordinary *batch* queue, no polling, the final
merged tree collected once at the end.

Implementation note: batch mode reuses the entire session machinery (the
paper's point is that the same site serves both), only the queue, the
polling behaviour, and the snapshot cadence differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.aida.tree import ObjectTree
from repro.client.client import IPAClient
from repro.core.site import GridSite


@dataclass
class BatchResult:
    """Outcome of a batch production run."""

    dataset_id: str
    n_engines: int
    events_processed: int
    submitted_at: float
    finished_at: float
    tree: ObjectTree = field(repr=False, default=None)

    @property
    def wall_seconds(self) -> float:
        """Submission-to-results wall clock (simulated)."""
        return self.finished_at - self.submitted_at


def run_batch(
    site: GridSite,
    credential,
    dataset_id: str,
    source: str,
    parameters: Optional[dict] = None,
    n_engines: Optional[int] = None,
    queue: str = "batch",
) -> BatchResult:
    """Run a production batch analysis and return the merged results.

    Parameters
    ----------
    site, credential:
        The simulated site and the submitting user's identity credential.
    dataset_id:
        Catalog id of the dataset to process.
    source, parameters:
        The finalized analysis code (same bundle format as interactive).
    n_engines:
        Engine count (defaults to the site policy maximum).
    queue:
        Scheduler queue; production work belongs on ``"batch"`` so it never
        competes with interactive sessions on the dedicated queue.
    """
    client = IPAClient(site, credential)
    # Route this session's engines through the requested queue.
    original_queue = site.policy.interactive_queue
    object.__setattr__(site.policy, "interactive_queue", queue)
    outcome: dict = {}

    def scenario():
        env = site.env
        submitted = env.now
        yield from client.obtain_proxy_and_connect(n_engines=n_engines)
        yield from client.select_dataset(dataset_id)
        yield from client.upload_code(source, parameters=parameters)
        yield from client.run()
        # Batch: no interactive polling — wait with a lazy cadence.
        final = yield from client.wait_for_completion(poll_interval=60.0)
        outcome["result"] = BatchResult(
            dataset_id=dataset_id,
            n_engines=client.session.n_engines,
            events_processed=final.progress.events_processed,
            submitted_at=submitted,
            finished_at=env.now,
            tree=final.tree,
        )
        yield from client.close()

    try:
        site.env.run(until=site.env.process(scenario()))
    finally:
        object.__setattr__(site.policy, "interactive_queue", original_queue)
    return outcome["result"]
