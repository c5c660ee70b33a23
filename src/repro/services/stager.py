"""Dataset staging: one path from the replica plan to loaded engines.

"Locate and transfer large dataset file ... split ... disperse" (Fig. 1):
the :class:`Stager` plans where each part of a dataset comes from (a
fully cold stage is a plan with every part missing), fetches the whole
file only when a split needs it and the storage element lacks it (once,
however many stages need it at the same time), runs the splitter's
production + movement pipeline for what the workers lack, records the
copies it leaves behind so the next stage is warm, commits the stage to
the session's journal and hands every engine its part.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.grid.nodes import ComputeElement, StorageElement
from repro.grid.transfer import GridFTPService, TransferError
from repro.obs import Observability
from repro.services.aida_manager import AIDAManagerService
from repro.services.catalog import DatasetCatalogService
from repro.services.locator import DatasetLocation, LocatorService
from repro.services.session_state import StagedDataset
from repro.services.splitter import SplitterService, StageReport
from repro.sim import Environment, LinkDown

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.core.config import Calibration
    from repro.replica.manager import ReplicaManager


@dataclass(eq=False)
class Stager:
    """Stages datasets for the session service, its only caller.

    *commit* is the service's ``_commit``: the stager reaches a session
    only through it and the session record it is handed.
    """

    env: Environment
    catalog: DatasetCatalogService
    locator: LocatorService
    splitter: SplitterService
    replicas: "ReplicaManager"
    ftp: GridFTPService
    storage: StorageElement
    element: ComputeElement
    aida: AIDAManagerService
    calibration: "Calibration"
    obs: Observability
    commit: Callable
    #: Whole-file fetches in flight, by dataset id (volatile).
    _fetches: dict = field(default_factory=dict, init=False, repr=False)

    def stage(
        self, session_id: str, session: dict, dataset_id: str, strategy: str, streams: Optional[int]
    ):
        """Stage *dataset_id* onto the session's workers (generator).

        Returns the :class:`StagedDataset` bookkeeping, with the
        per-phase timing breakdown the benchmarks print.
        """
        entry = self.catalog.entry(dataset_id)
        location = self.locator.locate(dataset_id)
        rm = self.replicas

        if session["state"].dataset is not None:
            # Dataset switch: release the previous dataset's pins so its
            # cached parts become evictable.
            rm.unpin_session(session_id)
        # Part keys depend only on the split geometry, so plan with a
        # template worker order, then permute the references so cached
        # parts land on the workers that hold them.
        template = self.splitter.plan_parts(
            location, [ref.worker for ref in session["references"]], strategy
        )
        keys = rm.part_keys(dataset_id, strategy, template)
        references = rm.align_references(session["references"], keys)
        parts = self.splitter.plan_parts(location, [ref.worker for ref in references], strategy)
        plan = rm.plan_sources(location, strategy, parts, keys)

        # The split phase is the catalog consult plus production, never
        # the WAN fetch; without a consult it starts with the pipeline.
        started = None
        if not plan.fully_cold or (location.origin_host is not None and rm.has_whole(location)):
            # One SOAP round trip.  A dataset the catalog has never seen
            # is a local lookup: a cold stage adds nothing to Table 2.
            started = self.env.now
            yield self.env.timeout(self.calibration.soap_latency_s)
        need_split = bool(plan.missing) and location.kind != "database"
        fetch_seconds, fetched = 0.0, False
        if need_split and not rm.has_whole(location):
            fetch_seconds, fetched = yield from self._fetch_whole(location)
            if started is not None:
                started += fetch_seconds
        fetch_skipped = location.origin_host is not None and not fetched

        def record_split():
            # A split pass leaves every part file of the geometry on the SE.
            for part, key in zip(parts, keys):
                if not rm.se_has_part(key):
                    rm.record_se_part(dataset_id, key, part.size_mb)

        # A stage the catalog knows registers the split's part files as the
        # split ends; a cold stage registers every copy as it completes.
        record_now = need_split and started is not None
        if len(plan.local) < len(parts):  # something to produce or move
            report: StageReport = yield self.splitter.split_and_scatter(
                location,
                [self.element.worker(ref.worker) for ref in references],
                streams=streams,
                plan=plan,
                fetch_peer=lambda source: self._peer_fetch(location, source, streams),
                started=started,
                produced=record_split if record_now else None,
            )
            split_seconds = report.split_seconds
            move_seconds = report.move_parts_seconds
        else:
            split_seconds, move_seconds = self.env.now - started, 0.0

        # Bookkeeping only (no simulated time): record the copies this
        # stage made, pinned for this session.
        if need_split and not record_now:
            record_split()
        for s in plan.local:
            rm.touch(s.worker, s.key, session_id)
        for s in plan.peer + plan.se + plan.missing:
            rm.record_worker_part(dataset_id, s.key, s.worker, s.size_mb, session_id)
        rm.note_stage(plan, fetch_skipped_mb=location.size_mb if fetch_skipped else 0.0)
        # Record the plan and who owns what (the recovery monitor
        # re-dispatches these assignments when an engine dies) before any
        # engine loads its part descriptor + the content recipe.
        record = dict(
            dataset_id=dataset_id,
            strategy=strategy,
            size_mb=location.size_mb,
            n_events=location.n_events,
            content=entry.content,
            parts=[asdict(part) for part in parts],
            assignments={ref.engine_id: [part.part_index] for ref, part in zip(references, parts)},
            staged=dict(
                fetch_seconds=fetch_seconds,
                split_seconds=split_seconds,
                move_parts_seconds=move_seconds,
                local_hits=len(plan.local),
                peer_hits=len(plan.peer),
                se_hits=len(plan.se),
                cold_parts=len(plan.missing),
                fetch_skipped=fetch_skipped,
                saved_mb=sum(s.size_mb for s in plan.local)
                + (location.size_mb if fetch_skipped else 0.0),
            ),
        )
        self.commit(session, "stage", **record)
        state = self.commit(session, "pins", keys=list(keys))
        if state.orphaned and not state.closed:
            # The monitor re-dispatches the dead engine's part; hold the
            # merge open until it is taken over.
            self.aida.set_recovering(session_id, True)
        for ref, part in zip(references, parts):
            yield ref.mailbox.put(("load_data", part, entry.content))
        return StagedDataset.from_record(record)

    def _fetch_whole(self, location: DatasetLocation):
        """Move the whole file from its origin to the SE (generator).

        "Locate and transfer large dataset file" (Fig. 1).  Records the SE
        copy so later sessions on this dataset do not re-download it
        across the WAN.  The fetch is single-flight per dataset: a stage
        that finds one in flight joins it (no second transfer, and the
        leader's ``TransferError`` is its own).  Returns the seconds this
        stage waited and whether it moved the file itself.
        """
        started = self.env.now
        fetch = self._fetches.get(location.dataset_id)
        if fetch is not None:
            yield fetch
            return self.env.now - started, False
        tracer = self.obs.tracer
        fetch_span = tracer.child(
            "stage.fetch", phase="move_whole", dataset=location.dataset_id, mb=location.size_mb
        )
        with tracer.activate(fetch_span):
            fetch = self.ftp.transfer_file(
                self.ftp.network.hosts[location.origin_host],
                self.storage,
                f"{location.dataset_id}.whole",
                location.size_mb,
                read_disk=False,
                write_disk=False,
            )
        self._fetches[location.dataset_id] = fetch
        try:
            yield fetch
        finally:
            del self._fetches[location.dataset_id]
        fetch_span.finish()
        self.replicas.record_whole(location)
        return self.env.now - started, True

    def _peer_fetch(self, location: DatasetLocation, source, streams):
        """Pull one part from another worker's cache (generator).

        A peer that fails mid-transfer (crash, link cut, injected fault)
        has its replica record dropped and the part falls back to the
        authoritative SE copy, so a flaky peer can slow a stage down but
        never fail it.
        """
        rm = self.replicas
        dst = self.element.worker(source.worker)
        name = self.splitter.part_file(location, source.part)
        try:
            peer = self.element.worker(source.source)
            yield self.ftp.transfer_file(peer, dst, name, source.size_mb, streams=streams)
        except (TransferError, LinkDown):
            rm.catalog.unregister(source.key, source.source, reason="peer-fetch-failed")
            self.obs.metrics.counter(
                "replica_peer_fallbacks_total",
                "Peer-to-peer part fetches that fell back to the SE",
            ).inc()
            yield self.ftp.transfer_file(self.storage, dst, name, source.size_mb, streams=streams)
