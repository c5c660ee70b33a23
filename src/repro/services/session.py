"""The IPA Session Manager Service and the engine host it drives.

"At the heart of the system design is the Interactive Parallel Dataset
Analysis Session Manager Service ... A dataset can only be analyzed in the
context of this session" (§3.2).  The session service:

1. creates a WSRF session resource per authorized client,
2. starts the pre-configured number of analysis engines through GRAM on
   the dedicated interactive queue and waits for their ready signals,
3. stages datasets (locator → optional whole-file fetch → splitter →
   scatter → per-engine load directives),
4. stages/reloads analysis code through the managing class loader,
5. fans out run/pause/stop/rewind/step controls,
6. monitors engine heartbeats and recovers from worker failures by
   re-staging orphaned partitions to a spare or surviving engine,
7. shuts everything down at session close ("the analysis engines ... should
   be started for each session and be shutdown at the end of a session",
   §2.3).

:class:`EngineHost` is the job body GRAM lands on each worker: it registers
with the worker registry, then serves directives from its mailbox, charging
simulated time for staging/compute while doing the *real* event processing
through :class:`~repro.engine.engine.AnalysisEngine`.

Failure model
-------------
Engines beat into the registry every ``heartbeat_interval`` seconds.  The
session's monitor loop treats a silent engine (crash, hang, or severed
link) as dead after ``heartbeat_timeout``: the engine is *quarantined* —
its AIDA contributions discarded and future (zombie) submissions banned,
its job cancelled, its partitions marked orphaned — and the orphans are
re-staged from the storage element and re-dispatched, preferring a spare
worker and falling back to the least-loaded survivor.  The AIDA manager's
ban set plus the ``recovering`` gate keep the merged histograms exactly
equal to a failure-free run.

Service faults
--------------
The service also survives *its own* crash: every state transition is
journalled write-ahead and the merge state checkpointed periodically to
the manager node's durable store.  ``crash()`` models the service process
dying (volatile state lost, tokens revoked, endpoints raising
:class:`~repro.resilience.faults.ServiceUnavailable`); ``recover()`` is
the cold start that replays the journal, restores the merge cache from
the last committed checkpoint, re-binds still-running engines through the
(surviving) registry, quarantines engines that died during the downtime,
and asks every live engine to republish a full keyframe — so the final
merged trees are bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.core.config import Calibration
    from repro.replica.manager import ReplicaManager

from repro.aida.codec import payload_nbytes
from repro.engine.controls import Command
from repro.engine.engine import AnalysisEngine, Snapshot
from repro.engine.sandbox import CodeBundle
from repro.grid.admission import AdmissionController
from repro.grid.gram import GramError, GramGatekeeper, JobDescription
from repro.grid.nodes import StorageElement, WorkerNode
from repro.grid.scheduler import JobState
from repro.grid.security import Certificate, SecurityContext, SecurityError
from repro.grid.transfer import GridFTPService, TransferError
from repro.obs import NULL_OBS, Observability
from repro.resilience.checkpoint import CheckpointStore, DurabilityConfig
from repro.resilience.faults import ServiceUnavailable
from repro.resilience.heartbeat import HeartbeatMonitor, RecoveryConfig
from repro.resilience.journal import JournalModel, SessionJournal, replay_journal
from repro.services.aida_manager import AIDAManagerService
from repro.services.catalog import DatasetCatalogService
from repro.services.codeloader import CodeLoaderError, ManagingClassLoaderService
from repro.services.content import ContentStore
from repro.services.envelope import ServiceContainer
from repro.services.locator import DatasetLocation, LocatorService
from repro.services.registry import EngineReference, WorkerRegistryService
from repro.services.splitter import PartDescriptor, SplitterService, StageReport
from repro.services.wsrf import ResourceHome, ResourceRef
from repro.sim import Environment, Interrupt, LinkDown, NodeCrash, NodeFailure, NodeHang, Store


class SessionError(Exception):
    """Raised on invalid session operations."""


@dataclass
class StagedDataset:
    """Bookkeeping for the dataset currently attached to a session."""

    dataset_id: str
    size_mb: float
    n_events: int
    content: dict
    parts: List[PartDescriptor]
    fetch_seconds: float
    split_seconds: float
    move_parts_seconds: float
    #: Split strategy the parts were cut under (keys replicas by geometry).
    strategy: str = "by-events"
    #: Replica-cache outcome of this stage (all zero on a cold stage
    #: without a replica manager).
    local_hits: int = 0
    peer_hits: int = 0
    se_hits: int = 0
    cold_parts: int = 0
    fetch_skipped: bool = False
    saved_mb: float = 0.0

    @property
    def stage_seconds(self) -> float:
        """Total staging wall-clock (fetch + split + move parts)."""
        return self.fetch_seconds + self.split_seconds + self.move_parts_seconds


@dataclass
class SessionInfo:
    """What the client receives from ``create_session``."""

    session_id: str
    resource: ResourceRef
    token: str
    n_engines: int
    engine_ids: List[str]


class EngineHost:
    """Per-worker engine process: serves mailbox directives.

    Directives (tuples) pushed by the session service:

    * ``("load_data", part, content)`` — stage a dataset part;
    * ``("load_code", bundle)`` — (re)load analysis code;
    * ``("control", verb, arg)`` — run/pause/stop/rewind/step;
    * ``("takeover", part, content, ack, resume)`` — absorb an orphaned
      partition from a dead engine (failure recovery);
    * ``("republish",)`` — resend the current results as a full keyframe
      (a recovered AIDA manager reconciling its merge cache);
    * ``("shutdown",)`` — leave the loop and deregister.

    With a ``heartbeat_interval`` the host also runs a liveness loop that
    beats into the registry; the beat stops when the node hangs or its
    link goes down, which is what the session monitor detects.  The whole
    directive-handling chain runs inside the *one* job-body process (via
    ``yield from``), so a single kernel interrupt — a crash or hang
    injected by the failure injector — takes the entire engine down
    without leaving orphaned sub-processes behind.

    The host holds *views* of the content store's cached blocks, and only
    while its job lives: when the body ends, by whatever route, it drops
    its parts and the engine's staged data (the engine keeps answering
    ``cursor`` / ``total_events``).
    """

    def __init__(
        self,
        engine_id: str,
        session_id: str,
        registry: WorkerRegistryService,
        aida: AIDAManagerService,
        content_store: ContentStore,
        calibration: "Calibration",
        heartbeat_interval: Optional[float] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.engine_id = engine_id
        self.session_id = session_id
        self.registry = registry
        self.aida = aida
        self.content_store = content_store
        self.calibration = calibration
        self.heartbeat_interval = heartbeat_interval
        self.obs = obs or NULL_OBS
        # Captured at construction time, which happens inside the (traced)
        # create_session / recovery execution — the engine's whole lifetime
        # then parents under the session tree even though GRAM starts it in
        # a fresh simulation process.
        self._trace_parent = self.obs.tracer.current_id
        metrics = self.obs.metrics
        self._events_metric = metrics.counter(
            "engine_events_total", "Events processed by analysis engines"
        )
        self._chunk_metric = metrics.histogram(
            "engine_chunk_seconds",
            "Per-chunk processing time (simulated seconds)",
        )
        self._payload_metric = metrics.counter(
            "aida_snapshot_payload_bytes_total",
            "Serialized snapshot payload bytes published to the AIDA "
            "manager, by snapshot kind (full keyframe vs delta)",
        )
        self.engine = AnalysisEngine(
            engine_id,
            chunk_events=calibration.chunk_events,
            snapshot_every_chunks=calibration.snapshot_every_chunks,
            delta_snapshots=getattr(calibration, "delta_snapshots", True),
            keyframe_every=getattr(calibration, "keyframe_every_snapshots", 8),
        )
        self.mailbox: Optional[Store] = None
        self._part: Optional[PartDescriptor] = None
        #: Every (part, content, batch) this engine is responsible for —
        #: the first from ``load_data``, later ones from takeovers.
        self._owned: List[tuple] = []
        #: Taken-over parts staged but not yet absorbed into the engine.
        self._pending: List[tuple] = []
        self._hb = None

    # -- job body ----------------------------------------------------------
    def body(self, env: Environment, worker: WorkerNode):
        """The GRAM job body: register, then serve directives until shutdown."""
        return self.obs.tracer.trace_gen(
            "engine.run",
            self._serve(env, worker),
            parent_id=self._trace_parent,
            engine=self.engine_id,
            worker=worker.name,
        )

    def _serve(self, env: Environment, worker: WorkerNode):
        cal = self.calibration
        yield env.timeout(cal.engine_startup_s)
        self.mailbox = Store(env)
        self.registry.register(
            EngineReference(
                engine_id=self.engine_id,
                session_id=self.session_id,
                worker=worker.name,
                mailbox=self.mailbox,
                host=self,
            )
        )
        if self.heartbeat_interval:
            self.registry.heartbeat(self.session_id, self.engine_id)
            self._hb = env.process(self._heartbeat(env, worker))
        try:
            while True:
                directive = yield self.mailbox.get()
                keep_going = yield from self._handle(env, worker, directive)
                if not keep_going:
                    break
        except Interrupt as intr:
            if isinstance(intr.cause, NodeHang):
                # A frozen node: it stops heartbeating but never exits on
                # its own; only the session monitor's missing-beat
                # detection notices, and the eventual force-cancel
                # re-raises the original hang as the job's failure.
                self._stop_heartbeat()
                yield env.event()
            raise
        finally:
            self._stop_heartbeat()
            self.registry.deregister(self.session_id, self.engine_id)
            # However the job ends (shutdown, crash, cancel, wall-time), the
            # parts staged to it go with it; the engine keeps its counts.
            self._owned = []
            self._pending = []
            self.engine.release_data()
        return self.engine.cursor

    def _heartbeat(self, env: Environment, worker: WorkerNode):
        """Beat into the registry until interrupted (engine exit/crash)."""
        try:
            while True:
                yield env.timeout(self.heartbeat_interval)
                if not worker.link_down:
                    self.registry.heartbeat(self.session_id, self.engine_id)
        except Interrupt:
            return

    def _stop_heartbeat(self) -> None:
        if self._hb is not None and self._hb.is_alive:
            self._hb.interrupt("engine-exit")
        self._hb = None

    def _handle(self, env: Environment, worker: WorkerNode, directive: tuple):
        kind = directive[0]
        cal = self.calibration
        if kind == "shutdown":
            return False
        if kind == "load_data":
            _, part, content = directive
            self._part = part
            # Local read of the staged part off the worker disk.
            yield worker.disk_read(part.size_mb)
            batch = self.content_store.events_for(
                content, part.start_event, part.stop_event
            )
            self._owned = [(part, content, batch)]
            self._pending = []
            self.engine.load_data(batch)
            return True
        if kind == "load_code":
            _, bundle = directive
            yield env.timeout(cal.code_load_s)
            self.engine.load_analysis(bundle.instantiate())
            return True
        if kind == "takeover":
            _, part, content, ack, resume = directive
            yield from self._stage_takeover(env, worker, part, content, ack)
            if resume:
                self.engine.controller.run()
                alive = yield from self._process_loop(env, worker)
                return alive
            return True
        if kind == "control":
            _, verb, arg = directive
            self._apply_control(verb, arg)
            if verb in (Command.RUN, Command.STEP):
                alive = yield from self._process_loop(env, worker)
                return alive
            return True
        if kind == "republish":
            # A restarted AIDA manager reconciling: resend everything as a
            # full keyframe so the merge cache converges on the engine's
            # current state regardless of what the checkpoint captured.
            yield env.timeout(cal.rmi_latency_s)
            full = self.engine.take_snapshot(
                final=self.engine.done and not self._pending, full=True
            )
            yield from self._publish(env, full)
            return True
        raise SessionError(f"unknown directive {kind!r}")

    def _stage_takeover(self, env, worker, part, content, ack):
        """Stage an orphaned partition handed over by the session monitor.

        Publishes a fresh *non-final* snapshot before acking, so the AIDA
        merge counts this engine as in-progress again the instant the
        monitor may clear the ``recovering`` gate — the merged results can
        never look complete while a re-dispatched part is unprocessed.
        """
        cal = self.calibration
        yield worker.disk_read(part.size_mb)
        batch = self.content_store.events_for(
            content, part.start_event, part.stop_event
        )
        self._owned.append((part, content, batch))
        if self.engine._data is None or self.engine.done:
            self._absorb((part, content, batch))
        else:
            self._pending.append((part, content, batch))
        yield env.timeout(cal.rmi_latency_s)
        yield from self._publish(env, self.engine.take_snapshot(final=False))
        if ack is not None and not ack.triggered:
            ack.succeed(self.engine_id)

    def _absorb(self, owned: tuple) -> None:
        part, _content, batch = owned
        self._part = part
        self.engine.load_additional_data(batch)

    def _publish(self, env: Environment, snapshot: Snapshot):
        """Submit a snapshot; answer a ``"resync"`` with a full keyframe.

        The snapshot is stamped with the leaf combiner it routes through
        (the engine itself stays topology-blind).  The manager asks for
        a resync when it cannot apply a delta (the engine's entry was
        invalidated, or a snapshot was lost), so the engine follows up
        with a full snapshot after another RMI hop.
        """
        combiner = self.aida.combiner_of(self.session_id, self.engine_id)
        if combiner is not None:
            snapshot = replace(snapshot, combiner=combiner)
        self._payload_metric.inc(
            payload_nbytes(snapshot.tree),
            kind="full" if snapshot.base_sequence == 0 else "delta",
        )
        status = self.aida.submit_snapshot(self.session_id, snapshot)
        if status == "resync":
            yield env.timeout(self.calibration.rmi_latency_s)
            full = self.engine.take_snapshot(final=snapshot.final, full=True)
            if combiner is not None:
                full = replace(full, combiner=combiner)
            self._payload_metric.inc(payload_nbytes(full.tree), kind="full")
            self.aida.submit_snapshot(self.session_id, full)

    def _apply_control(self, verb: str, arg) -> None:
        controller = self.engine.controller
        if verb == Command.RUN:
            controller.run()
        elif verb == Command.PAUSE:
            controller.pause()
        elif verb == Command.STOP:
            controller.stop()
        elif verb == Command.REWIND:
            controller.rewind()
            if len(self._owned) > 1:
                # Rewind over absorbed takeovers: start from the first
                # owned part and queue the rest again.
                first = self._owned[0]
                self._part = first[0]
                self._pending = list(self._owned[1:])
                self.engine.load_data(first[2])
        elif verb == Command.STEP:
            controller.step(int(arg))
        else:
            raise SessionError(f"unknown control verb {verb!r}")

    def _process_loop(self, env: Environment, worker: WorkerNode):
        """Process chunks until done/paused/stopped, charging model time.

        The engine does the *real* numpy work instantly (wall-clock) while
        the simulated clock advances by the calibrated per-MB analysis
        cost; new directives are absorbed between chunks so controls stay
        responsive at chunk granularity.
        """
        cal = self.calibration
        while True:
            # Absorb any directives that arrived (without blocking).
            while self.mailbox is not None and len(self.mailbox.items):
                directive = yield self.mailbox.get()
                keep_going = yield from self._handle_nested(
                    env, worker, directive
                )
                if not keep_going:
                    return False
            # Re-read each iteration: a mid-run load_data (dataset switch)
            # replaces the part descriptor.
            part = self._part
            chunk_started = env.now
            result = self.engine.process_chunk()
            if result.events > 0 and result.cursor == result.events:
                # First chunk of a fresh pass over a part (start, rewound,
                # or a just-absorbed takeover): charge the one-off serial
                # overhead — reader initialization, first-pass caches
                # (part of Table 2's non-1/N analysis behaviour).
                yield env.timeout(cal.engine_serial_overhead_s * worker.slow_factor)
            if result.events > 0 and part is not None and part.n_events > 0:
                chunk_mb = part.size_mb * (result.events / part.n_events)
                yield env.timeout(
                    chunk_mb * cal.grid_analysis_rate_s_per_mb * worker.slow_factor
                )
            if result.events > 0:
                self._events_metric.inc(result.events, engine=self.engine_id)
                self._chunk_metric.observe(
                    env.now - chunk_started, engine=self.engine_id
                )
            if result.snapshot is not None:
                snapshot = result.snapshot
                if snapshot.final and self._pending:
                    # The current part is done but taken-over parts are
                    # still queued: this is not the engine's last word.
                    snapshot = replace(snapshot, final=False)
                yield env.timeout(cal.rmi_latency_s)
                yield from self._publish(env, snapshot)
            if result.done and self._pending:
                self._absorb(self._pending.pop(0))
                continue
            if result.done or result.state in ("paused", "stopped", "idle"):
                return True

    def _handle_nested(self, env: Environment, worker: WorkerNode, directive: tuple):
        """Handle a directive that arrived mid-run (no recursive run loop)."""
        kind = directive[0]
        if kind == "shutdown":
            return False
        if kind == "control":
            _, verb, arg = directive
            self._apply_control(verb, arg)
            return True
        if kind == "takeover":
            _, part, content, ack, resume = directive
            yield from self._stage_takeover(env, worker, part, content, ack)
            if resume:
                self.engine.controller.run()
            return True
        result = yield from self._handle(env, worker, directive)
        return result


class SessionService:
    """Server-side coordinator of interactive analysis sessions.

    With a :class:`~repro.resilience.heartbeat.RecoveryConfig` the service
    also runs a per-session monitor loop implementing the failure model
    documented in the module docstring; without one (the default) its
    behaviour is identical to the failure-oblivious original.
    """

    def __init__(
        self,
        env: Environment,
        gram: GramGatekeeper,
        registry: WorkerRegistryService,
        catalog: DatasetCatalogService,
        locator: LocatorService,
        splitter: SplitterService,
        codeloader: ManagingClassLoaderService,
        aida: AIDAManagerService,
        ftp: GridFTPService,
        storage: StorageElement,
        content_store: ContentStore,
        calibration: "Calibration",
        durability: DurabilityConfig,
        container: ServiceContainer,
        session_lifetime: Optional[float] = None,
        recovery: Optional[RecoveryConfig] = None,
        obs: Optional[Observability] = None,
        replicas: Optional["ReplicaManager"] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.env = env
        self.obs = obs or NULL_OBS
        #: Replica catalog + staging caches; ``None`` reproduces the
        #: original fetch-split-scatter-every-time behaviour exactly.
        self.replicas = replicas
        self.gram = gram
        self.registry = registry
        self.catalog = catalog
        self.locator = locator
        self.splitter = splitter
        self.codeloader = codeloader
        self.aida = aida
        self.ftp = ftp
        self.storage = storage
        self.content_store = content_store
        self.calibration = calibration
        self.recovery = recovery
        #: Durable journal/checkpoint wiring.
        self.durability = durability
        #: Service container, for token revocation on crash / reissue on
        #: recovery.
        self.container = container
        #: Per-VO fair-share admission control over engine slots
        #: (``None`` = admit everything, the original behaviour).
        self.admission = admission
        self._session_lifetime = session_lifetime
        self.resources = ResourceHome(env, "session", session_lifetime)
        self._sessions: Dict[str, dict] = {}
        self._down = False
        self._journals: Dict[str, SessionJournal] = {}
        self._checkpoints: Dict[str, CheckpointStore] = {}
        #: Sessions whose journal said "closed" at the last recovery:
        #: closing one of these again is the idempotent no-op (the close
        #: already ran to completion before the crash).
        self._tombstones: set = set()

    @property
    def active_sessions(self) -> int:
        """Open (not yet closed) sessions — the broker's queue-depth signal."""
        return sum(
            1 for session in self._sessions.values() if not session["closed"]
        )

    # -- durability helpers -------------------------------------------------
    def _journal(self, session_id: str) -> SessionJournal:
        journal = self._journals.get(session_id)
        if journal is None:
            journal = SessionJournal(
                self.durability.store,
                session_id,
                fsync=self.durability.journal_fsync,
            )
            self._journals[session_id] = journal
        return journal

    def _log(self, session_id: str, record_type: str, /, **data) -> None:
        """Append one write-ahead journal record (no simulated time)."""
        self._journal(session_id).append(record_type, **data)

    def _checkpoint_store(self, session_id: str) -> CheckpointStore:
        store = self._checkpoints.get(session_id)
        if store is None:
            store = CheckpointStore(
                self.durability.store,
                session_id,
                keyframe_every=self.durability.checkpoint_keyframe_every,
            )
            self._checkpoints[session_id] = store
        return store

    def _closed_in_journal(self, session_id: str) -> bool:
        """Whether the durable journal tombstones this session as closed."""
        records = self._journal(session_id).records()
        return any(r.get("type") == "closed" for r in records)

    def closed_before_crash(self, session_id: str) -> bool:
        """Whether this session's close completed before a service crash.

        True only after a recovery found the journal tombstone; closing
        such a session again is an idempotent no-op rather than a
        ``SessionError``.
        """
        return session_id in self._tombstones

    def _log_stage(
        self,
        session_id: str,
        staged: "StagedDataset",
        keys: Optional[List[str]] = None,
    ) -> None:
        """Journal a completed dataset stage (plan + dispatch map + pins)."""
        session = self._sessions[session_id]
        self._log(
            session_id,
            "stage",
            dataset_id=staged.dataset_id,
            strategy=staged.strategy,
            size_mb=staged.size_mb,
            n_events=staged.n_events,
            content=staged.content,
            parts=[
                {
                    "part_index": part.part_index,
                    "start_event": part.start_event,
                    "stop_event": part.stop_event,
                    "size_mb": part.size_mb,
                    "worker": part.worker,
                }
                for part in staged.parts
            ],
            assignments={
                engine_id: [part.part_index for part, _content in pairs]
                for engine_id, pairs in session["assignments"].items()
            },
            staged={
                "fetch_seconds": staged.fetch_seconds,
                "split_seconds": staged.split_seconds,
                "move_parts_seconds": staged.move_parts_seconds,
                "local_hits": staged.local_hits,
                "peer_hits": staged.peer_hits,
                "se_hits": staged.se_hits,
                "cold_parts": staged.cold_parts,
                "fetch_skipped": staged.fetch_skipped,
                "saved_mb": staged.saved_mb,
            },
        )
        if keys is not None:
            self._log(session_id, "pins", keys=list(keys))

    # -- lifecycle ----------------------------------------------------------
    def create_session(
        self,
        context: SecurityContext,
        credential_chain: List[Certificate],
        n_engines: Optional[int] = None,
        dataset_hint: Optional[str] = None,
    ):
        """Create a session and start its engines (generator operation).

        Returns a :class:`SessionInfo`.  The engine count defaults to the
        site-policy maximum ("the number of nodes is determined by the Grid
        site policy that is pre-configured on the manager service", §3.2).
        *dataset_hint* names the dataset the session intends to analyze:
        with a replica manager attached, engine placement then prefers
        workers already caching parts of it (data affinity), maximizing
        local hits when the dataset is staged.
        """
        if self._down:
            raise ServiceUnavailable("session service is down")
        policy = self.gram.authz.authorize(context.identity)
        count = n_engines if n_engines is not None else policy.max_engines_per_session
        if count < 1:
            raise SessionError("n_engines must be >= 1")
        total_workers = len(self.gram.scheduler.element)
        if count > total_workers:
            # Engines occupy a worker for the whole session, so requesting
            # more than the site has would deadlock session creation.
            raise SessionError(
                f"requested {count} engines but the site has only "
                f"{total_workers} workers"
            )

        admitted: Optional[Tuple[str, int]] = None
        if self.admission is not None:
            # Per-VO fair-share gate: waits within the VO's quota, or
            # raises RetryAfter (backpressure) when the queue is full.
            vo = self.gram.authz.vo_of(context.identity) or context.identity
            yield from self.admission.acquire(vo, count)
            admitted = (vo, count)
        try:
            info = yield from self._start_session(
                context, credential_chain, count, dataset_hint, admitted
            )
        except BaseException:
            # The session never came up; nothing holds the slots.
            if admitted is not None:
                self.admission.release(*admitted)
            raise
        return info

    def _start_session(
        self,
        context: SecurityContext,
        credential_chain: List[Certificate],
        count: int,
        dataset_hint: Optional[str],
        admitted: Optional[Tuple[str, int]],
    ):
        """Start engines and build the session record (post-admission)."""
        ref = self.resources.create(
            {"owner": context.identity, "state": "starting", "engines": count}
        )
        session_id = ref.resource_id
        hosts: Dict[str, EngineHost] = {}

        def body_factory(index: int):
            host = self._engine_host(session_id, index)
            hosts[host.engine_id] = host
            return host.body

        preferred: Optional[List[str]] = None
        if self.replicas is not None and dataset_hint is not None:
            preferred = self.replicas.preferred_workers(dataset_hint) or None
        submission = yield from self.gram.submit_with_retry(
            JobDescription("ipa-analysis-engine", count=count),
            credential_chain,
            body_factory,
            preferred=preferred,
        )
        # Wait until every engine has signalled ready (Fig. 2 step:
        # "Ready Signal with Reference").
        references = yield self.registry.wait_for(session_id, count)
        token = secrets.token_hex(16)
        session = self._session_record(
            ref=ref,
            context=context,
            chain=list(credential_chain),
            submission=submission,
            hosts=hosts,
            references=list(references),
            engine_jobs={
                f"{session_id}-engine-{index}": job
                for index, job in enumerate(submission.jobs)
            },
            token=token,
            # (vo, slots) held at the admission controller, if any.
            admission=admitted,
            next_engine_index=count,
            # Trace context of the creating call: recovery work started by
            # the background monitor parents here instead of floating free.
            trace_parent=self.obs.tracer.current_id,
        )
        self._sessions[session_id] = session
        self.aida.set_expected_engines(session_id, count)
        # Plan the session's merge tree now that its engines are known.
        self.aida.configure_tier(
            session_id, [reference.engine_id for reference in references]
        )
        self._log(
            session_id,
            "create",
            session_id=session_id,
            owner=context.identity,
            token=token,
            n_engines=count,
            engines={ref_.engine_id: ref_.worker for ref_ in references},
        )
        self._arm_background_loops(session_id)
        self.resources.set_property(ref, "state", "ready")
        self.obs.events.emit(
            "session_created",
            message=f"{session_id} with {count} engines",
            session=session_id,
            owner=context.identity,
            engines=count,
        )
        return SessionInfo(
            session_id=session_id,
            resource=ref,
            token=token,
            n_engines=count,
            engine_ids=sorted(hosts),
        )

    def _engine_host(self, session_id: str, index: int) -> EngineHost:
        """The job body GRAM lands on a worker for engine *index*."""
        return EngineHost(
            engine_id=f"{session_id}-engine-{index}",
            session_id=session_id,
            registry=self.registry,
            aida=self.aida,
            content_store=self.content_store,
            calibration=self.calibration,
            heartbeat_interval=(
                self.recovery.heartbeat_interval if self.recovery else None
            ),
            obs=self.obs,
        )

    @staticmethod
    def _session_record(**fields) -> dict:
        """The volatile record of one session: fresh-session defaults
        overridden by *fields*.  Both builders (start and recovery) must
        supply ``ref, context, chain, submission, hosts, references,
        engine_jobs, token, admission, next_engine_index, trace_parent``;
        recovery adds what it replayed from the journal.
        """
        session = {
            "spare_submissions": [],
            "assignments": {},
            "orphaned": [],
            "pending_acks": [],
            "recoveries": [],
            "redispatches": [],
            "dataset": None,
            "running": False,
            "closing": False,
            "closed": False,
            "unrecoverable": False,
            "rewinds": 0,
            "monitor": None,
            "monitor_proc": None,
            "checkpoint_proc": None,
            "redispatch_proc": None,
            #: engine_id -> worker currently demoted on straggler hints
            #: (diffed against the anomaly monitor's flags each sweep).
            "straggler_hints": {},
        }
        session.update(fields)
        return session

    def _arm_background_loops(self, session_id: str) -> None:
        """Start the session's heartbeat monitor and checkpoint loop."""
        session = self._sessions[session_id]
        if self.recovery is not None:
            monitor = HeartbeatMonitor(
                self.env, self.registry, session_id, self.recovery
            )
            for reference in session["references"]:
                # watch() seeds a fresh beat: after a restart nobody gets
                # quarantined because their last beat predates the downtime.
                monitor.watch(reference.engine_id)
            session["monitor"] = monitor
            session["monitor_proc"] = self.env.process(
                self._monitor_loop(session_id)
            )
        session["checkpoint_proc"] = self.env.process(
            self._checkpoint_loop(session_id)
        )

    def _session(self, session_id: str) -> dict:
        if self._down:
            raise ServiceUnavailable("session service is down")
        session = self._sessions.get(session_id)
        if session is None or session["closed"]:
            raise SessionError(f"no active session {session_id!r}")
        return session

    def token(self, session_id: str) -> str:
        """The session's RMI token."""
        return self._session(session_id)["token"]

    # -- dataset staging ------------------------------------------------------
    def add_dataset(
        self,
        session_id: str,
        dataset_id: str,
        strategy: str = "by-events",
        streams: Optional[int] = None,
    ):
        """Stage a dataset onto the session's workers (generator operation).

        With a replica manager attached the catalog is consulted first: a
        warm hit skips the WAN fetch and/or the scatter entirely, a
        partial hit moves only the missing parts (peer-to-peer from other
        worker caches where that is cheaper than the SE spindle), and a
        fully cold stage falls through to the original §3.4 pipeline with
        bit-identical timings.  Returns the :class:`StagedDataset`
        bookkeeping (with the per-phase timing breakdown the benchmarks
        print).
        """
        session = self._session(session_id)
        entry = self.catalog.entry(dataset_id)
        location = self.locator.locate(dataset_id)
        rm = self.replicas

        plan = keys = None
        if rm is not None:
            if session["dataset"] is not None:
                # Dataset switch: release the previous dataset's pins so
                # its cached parts become evictable.
                rm.unpin_session(session_id)
            # Part keys depend only on the split geometry, so plan with a
            # template worker order, then permute the references so cached
            # parts land on the workers that hold them.
            references = session["references"]
            template = self.splitter.plan_parts(
                location, [ref.worker for ref in references], strategy
            )
            keys = rm.part_keys(dataset_id, strategy, template)
            aligned = rm.align_references(references, keys)
            parts = self.splitter.plan_parts(
                location, [ref.worker for ref in aligned], strategy
            )
            plan = rm.plan_sources(location, strategy, parts, keys)
            fetch_skippable = (
                location.origin_host is not None and rm.has_whole(location)
            )
            if not plan.fully_cold or fetch_skippable:
                staged = yield from self._stage_from_replicas(
                    session, session_id, entry, location, strategy,
                    streams, aligned, parts, keys, plan,
                )
                session["dataset"] = staged
                self.resources.set_property(
                    session["ref"], "dataset", dataset_id
                )
                self._log_stage(session_id, staged, keys)
                return staged
            # Fully cold and the fetch decision is unchanged: fall through
            # to the original pipeline (identical timings), registering the
            # produced copies below so the *next* stage is warm.

        tracer = self.obs.tracer
        fetch_seconds = 0.0
        if location.origin_host is not None:
            # "Locate and transfer large dataset file" (Fig. 1): move the
            # whole file from its origin to the storage element.
            started = self.env.now
            fetch_span = tracer.child(
                "stage.fetch",
                phase="move_whole",
                dataset=dataset_id,
                mb=location.size_mb,
            )
            with tracer.activate(fetch_span):
                fetch = self.ftp.transfer_file(
                    _HostProxy(location.origin_host, self.env),
                    self.storage,
                    f"{dataset_id}.whole",
                    location.size_mb,
                    read_disk=False,
                    write_disk=False,
                )
            yield fetch
            fetch_span.finish()
            fetch_seconds = self.env.now - started
            if rm is not None:
                # Record the SE copy so later sessions on this dataset do
                # not re-download it across the WAN.
                rm.record_whole(location)

        references = session["references"]
        workers = [
            self.gram.scheduler.element.worker(ref.worker) for ref in references
        ]
        if location.kind == "database":
            # Contiguous-record DB location (§3.4): server-side range
            # queries replace the serial split pass entirely.
            report: StageReport = yield self.splitter.query_and_scatter(
                location, workers, strategy=strategy, streams=streams
            )
        else:
            report = yield self.splitter.split_and_scatter(
                location, workers, strategy=strategy, streams=streams
            )
        if rm is not None:
            # Bookkeeping only (no simulated time): record every copy the
            # cold pipeline just produced, pinned for this session.
            for part, key in zip(report.parts, keys):
                if location.kind != "database":
                    rm.record_se_part(dataset_id, key, part.size_mb)
                rm.record_worker_part(
                    dataset_id, key, part.worker, part.size_mb, session_id
                )
            rm.note_stage(plan)
        # Hand each engine its part descriptor + the content recipe, and
        # record who owns what (the recovery monitor re-dispatches these
        # assignments when an engine dies).
        session["assignments"] = {}
        session["orphaned"] = []
        for ref, part in zip(references, report.parts):
            session["assignments"][ref.engine_id] = [(part, entry.content)]
            yield ref.mailbox.put(("load_data", part, entry.content))

        staged = StagedDataset(
            dataset_id=dataset_id,
            size_mb=location.size_mb,
            n_events=location.n_events,
            content=entry.content,
            parts=report.parts,
            fetch_seconds=fetch_seconds,
            split_seconds=report.split_seconds,
            move_parts_seconds=report.move_parts_seconds,
            strategy=strategy,
            cold_parts=len(report.parts),
        )
        session["dataset"] = staged
        self.resources.set_property(session["ref"], "dataset", dataset_id)
        self._log_stage(session_id, staged, keys)
        return staged

    @staticmethod
    def _part_file_name(location: DatasetLocation, part: PartDescriptor) -> str:
        """The on-disk part name the splitter's pipelines use."""
        stem = "range" if location.kind == "database" else "part"
        return f"{location.dataset_id}.{stem}{part.part_index}"

    def _stage_from_replicas(
        self,
        session: dict,
        session_id: str,
        entry,
        location: DatasetLocation,
        strategy: str,
        streams: Optional[int],
        references: List,
        parts: List[PartDescriptor],
        keys: List[str],
        plan,
    ):
        """Warm/partial staging driven by the replica catalog (generator).

        Movement policy per part: **local** parts move nothing (the
        assigned worker already caches them); **se** parts (and parts
        just produced by a split/range query) scatter through the
        spindle-serialized GridFTP path; **peer** parts transfer
        point-to-point between worker caches, falling back to the SE if
        the peer fails mid-transfer.  The WAN fetch and serial split run
        only when some part of this geometry must actually be produced.
        """
        rm = self.replicas
        cal = self.calibration
        dataset_id = location.dataset_id
        tracer = self.obs.tracer
        element = self.gram.scheduler.element
        span = tracer.child(
            "stage.replica",
            dataset=dataset_id,
            local=len(plan.local),
            peer=len(plan.peer),
            se=len(plan.se),
            missing=len(plan.missing),
        )
        with tracer.activate(span):
            split_started = self.env.now
            # One SOAP round-trip: the replica-catalog consult.
            yield self.env.timeout(cal.soap_latency_s)

            fetch_seconds = 0.0
            need_split = bool(plan.missing) and location.kind != "database"
            if need_split and not rm.has_whole(location):
                started = self.env.now
                fetch_span = tracer.child(
                    "stage.fetch",
                    phase="move_whole",
                    dataset=dataset_id,
                    mb=location.size_mb,
                )
                with tracer.activate(fetch_span):
                    fetch = self.ftp.transfer_file(
                        _HostProxy(location.origin_host, self.env),
                        self.storage,
                        f"{dataset_id}.whole",
                        location.size_mb,
                        read_disk=False,
                        write_disk=False,
                    )
                yield fetch
                fetch_span.finish()
                fetch_seconds = self.env.now - started
                rm.record_whole(location)
            fetch_skipped = (
                location.origin_host is not None and fetch_seconds == 0.0
            )

            if need_split:
                # The split pass iterates the whole file regardless of how
                # many parts are missing — same cost as a cold split — and
                # leaves *every* part file on the SE.
                split_span = tracer.child(
                    "stage.split",
                    phase="split",
                    mb=location.size_mb,
                    parts=len(parts),
                )
                yield self.env.timeout(
                    self.splitter.split_seconds_for(location, len(parts))
                )
                split_span.finish()
                for part, key in zip(parts, keys):
                    if not rm.se_has_part(key):
                        rm.record_se_part(dataset_id, key, part.size_mb)
            elif plan.missing:
                # Database location: missing parts are server-side range
                # queries, no split pass.
                plan_span = tracer.child(
                    "stage.query_plan", phase="split", parts=len(plan.missing)
                )
                yield self.env.timeout(
                    SplitterService.DEFAULT_PER_QUERY_OVERHEAD
                    * len(plan.missing)
                )
                plan_span.finish()
            split_seconds = self.env.now - split_started

            move_started = self.env.now
            move_span = tracer.child("stage.move_parts", phase="move_parts")
            scatter_sources = plan.se + plan.missing
            waits = []
            with tracer.activate(move_span):
                if scatter_sources:
                    waits.append(
                        self.ftp.scatter(
                            self.storage,
                            [element.worker(s.worker) for s in scatter_sources],
                            [
                                (
                                    self._part_file_name(location, s.part),
                                    s.size_mb,
                                )
                                for s in scatter_sources
                            ],
                            streams=streams,
                        )
                    )
                for s in plan.peer:
                    waits.append(
                        self.env.process(
                            tracer.trace_gen(
                                "stage.peer_fetch",
                                self._peer_fetch(location, s, streams),
                                file=self._part_file_name(location, s.part),
                                src=s.source,
                                dst=s.worker,
                            )
                        )
                    )
            if waits:
                yield self.env.all_of(waits)
            move_span.finish()
            move_seconds = self.env.now - move_started

            for s in plan.local:
                rm.touch(s.worker, s.key, session_id)
            for s in plan.peer + scatter_sources:
                rm.record_worker_part(
                    dataset_id, s.key, s.worker, s.size_mb, session_id
                )
            rm.note_stage(
                plan,
                fetch_skipped_mb=location.size_mb if fetch_skipped else 0.0,
            )
        span.finish(fetch_skipped=fetch_skipped)

        session["assignments"] = {}
        session["orphaned"] = []
        for ref, part in zip(references, parts):
            session["assignments"][ref.engine_id] = [(part, entry.content)]
            yield ref.mailbox.put(("load_data", part, entry.content))

        return StagedDataset(
            dataset_id=dataset_id,
            size_mb=location.size_mb,
            n_events=location.n_events,
            content=entry.content,
            parts=parts,
            fetch_seconds=fetch_seconds,
            split_seconds=split_seconds,
            move_parts_seconds=move_seconds,
            strategy=strategy,
            local_hits=len(plan.local),
            peer_hits=len(plan.peer),
            se_hits=len(plan.se),
            cold_parts=len(plan.missing),
            fetch_skipped=fetch_skipped,
            saved_mb=sum(s.size_mb for s in plan.local)
            + (location.size_mb if fetch_skipped else 0.0),
        )

    def _peer_fetch(self, location: DatasetLocation, source, streams):
        """Pull one part from another worker's cache (generator).

        A peer that fails mid-transfer (crash, link cut, injected fault)
        has its replica record dropped and the part falls back to the
        authoritative SE copy, so a flaky peer can slow a stage down but
        never fail it.
        """
        rm = self.replicas
        element = self.gram.scheduler.element
        dst = element.worker(source.worker)
        name = self._part_file_name(location, source.part)
        try:
            peer = element.worker(source.source)
            yield self.ftp.transfer_file(
                peer, dst, name, source.size_mb, streams=streams
            )
        except (TransferError, LinkDown):
            rm.catalog.unregister(
                source.key, source.source, reason="peer-fetch-failed"
            )
            self.obs.metrics.counter(
                "replica_peer_fallbacks_total",
                "Peer-to-peer part fetches that fell back to the SE",
            ).inc()
            yield self.ftp.transfer_file(
                self.storage, dst, name, source.size_mb, streams=streams
            )

    # -- code staging ------------------------------------------------------
    def stage_code(self, session_id: str, bundle: CodeBundle):
        """Stage analysis code to every engine (generator operation).

        Returns the staging wall-clock in seconds.
        """
        session = self._session(session_id)
        references = session["references"]
        workers = [
            self.gram.scheduler.element.worker(ref.worker) for ref in references
        ]
        tracer = self.obs.tracer
        started = self.env.now
        code_span = tracer.child(
            "stage.code", phase="stage_code", engines=len(references)
        )
        with tracer.activate(code_span):
            staging = self.codeloader.stage(session_id, bundle, workers)
        yield staging
        for ref in references:
            yield ref.mailbox.put(("load_code", bundle))
        code_span.finish()
        self._log(
            session_id,
            "code",
            class_name=bundle.class_name,
            version=bundle.version,
        )
        return self.env.now - started

    def reload_code(
        self,
        session_id: str,
        source: Optional[str] = None,
        parameters: Optional[dict] = None,
    ):
        """Hot-reload: stage an updated bundle (generator operation)."""
        session = self._session(session_id)
        current = self.codeloader.current(session_id)
        updated = current.updated(source=source, parameters=parameters)
        duration = yield self.env.process(self.stage_code(session_id, updated))
        return duration

    # -- control ------------------------------------------------------------
    def control(self, session_id: str, verb: str, argument=None):
        """Fan a control verb out to every engine (generator operation)."""
        session = self._session(session_id)
        if verb == Command.REWIND:
            # Invalidate the previous run's merged results immediately so a
            # poll between rewind and the first new snapshot cannot return
            # stale (complete-looking) data.
            session["rewinds"] = session.get("rewinds", 0) + 1
            self.aida.begin_run(session_id, session["rewinds"])
        if verb in (Command.RUN, Command.STEP):
            session["running"] = True
        elif verb in (Command.PAUSE, Command.STOP):
            session["running"] = False
        # Write-ahead: the verb is durable before any engine acts on it.
        self._log(session_id, "control", verb=verb)
        for ref in session["references"]:
            yield ref.mailbox.put(("control", verb, argument))
        return len(session["references"])

    # -- status ------------------------------------------------------------
    def status(self, session_id: str) -> dict:
        """Summary of the session's engines and staged dataset."""
        session = self._session(session_id)
        dataset = session["dataset"]
        submission = session["submission"]
        all_jobs = list(submission.jobs)
        for spare in session["spare_submissions"]:
            all_jobs.extend(spare.jobs)
        failures = [
            {"job": job.name, "error": str(job.error)}
            for job in all_jobs
            if job.state == "failed"
            and not isinstance(job.error, NodeFailure)
        ]
        node_failures = [
            {"job": job.name, "error": str(job.error)}
            for job in all_jobs
            if job.state == "failed" and isinstance(job.error, NodeFailure)
        ]
        workers_by_engine = {
            ref.engine_id: ref.worker for ref in session["references"]
        }
        return {
            "session_id": session_id,
            "owner": session["context"].identity,
            "n_engines": len(session["references"]),
            "dataset": dataset.dataset_id if dataset else None,
            "job_states": [job.state for job in all_jobs],
            "failures": failures,
            "node_failures": node_failures,
            "recoveries": [
                {
                    "engine_id": record["engine_id"],
                    "cause": str(record["cause"]),
                    "detected_at": record["detected_at"],
                    "parts": record["parts"],
                }
                for record in session["recoveries"]
            ],
            "redispatches": list(session["redispatches"]),
            "orphaned_parts": len(session["orphaned"]),
            "unrecoverable": session["unrecoverable"],
            "engines": [
                {
                    "engine_id": host.engine_id,
                    "worker": workers_by_engine.get(host.engine_id),
                    "cursor": host.engine.cursor,
                    "total": host.engine.total_events,
                    "state": host.engine.controller.state,
                }
                for host in sorted(
                    session["hosts"].values(), key=lambda h: h.engine_id
                )
            ],
        }

    # -- failure recovery ---------------------------------------------------
    def _monitor_loop(self, session_id: str):
        """Detect dead engines by missing heartbeats and recover.

        One sweep per ``RecoveryConfig.period``: first *every* stale engine
        is quarantined (so a multi-failure never re-dispatches onto a
        worker that is itself about to be declared dead), then orphaned
        partitions are re-dispatched.  Runs until the session closes; while
        closing it keeps cancelling hung engines so ``close`` can finish,
        but stops re-dispatching work.

        A service crash interrupts the loop; the ``Interrupt`` is absorbed
        here (an unobserved process failure would crash the kernel).
        """
        try:
            yield from self._monitor_loop_inner(session_id)
        except Interrupt:
            return

    def _monitor_loop_inner(self, session_id: str):
        session = self._sessions[session_id]
        config = self.recovery
        monitor = session["monitor"]
        while True:
            if session["closed"]:
                return
            yield self.env.timeout(config.period)
            if session["closed"]:
                return
            suspects = set(monitor.stale())
            for engine_id in list(monitor.watched):
                job = session["engine_jobs"].get(engine_id)
                if (
                    job is not None
                    and job.state == JobState.FAILED
                    and isinstance(job.error, NodeFailure)
                ):
                    # Job already reported the node failure; no need to
                    # wait out the heartbeat timeout.
                    suspects.add(engine_id)
            for engine_id in sorted(suspects):
                job = session["engine_jobs"].get(engine_id)
                if job is not None and job.state in (
                    JobState.COMPLETED,
                    JobState.CANCELLED,
                    JobState.KILLED,
                ):
                    # Normal termination (shutdown/cancel): not a failure.
                    monitor.unwatch(engine_id)
                    continue
                if (
                    job is not None
                    and job.state == JobState.FAILED
                    and not isinstance(job.error, NodeFailure)
                ):
                    # The user's analysis crashed — surfaced through
                    # status()/the client, not recoverable by re-dispatch.
                    monitor.unwatch(engine_id)
                    continue
                self._quarantine(session_id, engine_id)
            if session["orphaned"] and not session["closing"]:
                # Track the re-dispatch process so a service crash can
                # interrupt it too (it must not act on wiped state).
                proc = self.env.process(
                    self.obs.tracer.trace_gen(
                        "session.redispatch",
                        self._redispatch(session_id),
                        parent_id=session.get("trace_parent"),
                    )
                )
                session["redispatch_proc"] = proc
                yield proc
                session["redispatch_proc"] = None
            self._apply_straggler_hints(session_id)
            self._maybe_end_recovery(session_id)

    def _apply_straggler_hints(self, session_id: str) -> None:
        """One anomaly sweep: demote flagged workers, restore recovered ones.

        Detection is advisory — a flagged worker is deprioritized for new
        placements and its engine's heartbeat timeout shortened, but
        nothing is killed; a recovered engine gets both hints lifted.
        """
        session = self._sessions.get(session_id)
        if session is None or session["closed"]:
            return
        monitor = session["monitor"]
        hints: Dict[str, str] = session["straggler_hints"]
        flagged = {
            report.engine_id for report in self.obs.anomaly.detect(session_id)
        }
        workers_by_engine = {
            ref.engine_id: ref.worker for ref in session["references"]
        }
        scheduler = self.gram.scheduler
        for engine_id in sorted(flagged - set(hints)):
            worker = workers_by_engine.get(engine_id)
            if worker is None:
                continue
            hints[engine_id] = worker
            scheduler.deprioritize(worker)
            if monitor is not None:
                monitor.suspect(engine_id)
        for engine_id in sorted(set(hints) - flagged):
            worker = hints.pop(engine_id)
            scheduler.restore_priority(worker)
            if monitor is not None:
                monitor.clear_suspicion(engine_id)

    def _quarantine(self, session_id: str, engine_id: str) -> dict:
        """Declare an engine dead: ban its results, orphan its partitions."""
        session = self._sessions[session_id]
        monitor = session["monitor"]
        if monitor is not None:
            monitor.unwatch(engine_id)
        job = session["engine_jobs"].get(engine_id)
        cause = (
            job.error
            if job is not None and isinstance(job.error, NodeFailure)
            else NodeCrash(engine_id, "heartbeat timeout")
        )
        # The beat record survives deregistration, so read it first: the
        # fault→detection latency is (now − last beat).
        last_beat = self.registry.last_heartbeat(session_id, engine_id)
        metrics = self.obs.metrics
        if last_beat is not None:
            metrics.histogram(
                "fault_detect_seconds",
                "Engine silence to quarantine latency (simulated seconds)",
            ).observe(self.env.now - last_beat)
        metrics.counter(
            "session_quarantines_total",
            "Engines declared dead and quarantined",
        ).inc()
        self.obs.events.emit(
            "fault_detected",
            message=f"{engine_id} silent ({type(cause).__name__})",
            severity="error",
            session=session_id,
            engine=engine_id,
            cause=type(cause).__name__,
            silence_s=(
                self.env.now - last_beat if last_beat is not None else None
            ),
        )
        recovery_span = self.obs.tracer.start(
            "session.recover",
            parent_id=session.get("trace_parent"),
            engine=engine_id,
            cause=type(cause).__name__,
        )
        # Gate `complete` first, then drop the dead engine's epoch from the
        # merge — zombie submissions are banned from here on.
        self.aida.set_recovering(session_id, True)
        self.aida.discard_engine(session_id, engine_id)
        self.registry.deregister(session_id, engine_id)
        dead_ref = next(
            (r for r in session["references"] if r.engine_id == engine_id),
            None,
        )
        if self.replicas is not None and dead_ref is not None:
            # A dead worker's cache contents are gone with it: drop its
            # replica records so no later stage plans a peer fetch from it.
            self.replicas.invalidate_host(dead_ref.worker)
        session["references"] = [
            ref for ref in session["references"] if ref.engine_id != engine_id
        ]
        self.aida.set_expected_engines(session_id, len(session["references"]))
        session["hosts"].pop(engine_id, None)
        orphaned = session["assignments"].pop(engine_id, [])
        session["orphaned"].extend(orphaned)
        record = {
            "engine_id": engine_id,
            "cause": cause,
            "detected_at": self.env.now,
            "parts": len(orphaned),
            "span": recovery_span,
        }
        session["recoveries"].append(record)
        self._log(session_id, "quarantine", engine_id=engine_id)
        # A dead engine is no straggler: drop its anomaly series and any
        # placement/suspicion hints it accumulated while degrading.
        self.obs.anomaly.forget_engine(session_id, engine_id)
        hinted_worker = session["straggler_hints"].pop(engine_id, None)
        if hinted_worker is not None:
            self.gram.scheduler.restore_priority(hinted_worker)
        self.obs.events.emit(
            "engine_quarantined",
            message=f"{engine_id} quarantined, {len(orphaned)} parts orphaned",
            severity="warning",
            session=session_id,
            engine=engine_id,
            worker=dead_ref.worker if dead_ref is not None else None,
            orphaned=len(orphaned),
        )
        if job is not None and job.state not in JobState.TERMINAL:
            self.gram.scheduler.cancel(job.id, cause)
        return record

    def _redispatch(self, session_id: str):
        """Re-stage and re-dispatch orphaned partitions (generator).

        Prefers starting a fresh engine on a spare worker (parallelism is
        preserved); falls back to handing the part to the least-loaded
        surviving engine.  Each part is re-staged from the storage element
        through GridFTP before the takeover directive is sent.

        A service crash interrupts the generator mid-transfer; the
        ``Interrupt`` is absorbed here so the kernel never sees an
        unobserved process failure.
        """
        try:
            yield from self._redispatch_inner(session_id)
        except Interrupt:
            return

    def _redispatch_inner(self, session_id: str):
        session = self._sessions[session_id]
        config = self.recovery
        while (
            session["orphaned"]
            and not session["closing"]
            and not session["closed"]
        ):
            target: Optional[EngineReference] = None
            if self.gram.scheduler.available_worker_count > 0:
                target = yield from self._start_spare(session_id)
            if target is None:
                live = session["references"]
                if not live:
                    session["unrecoverable"] = True
                    self.resources.set_property(
                        session["ref"], "state", "failed"
                    )
                    return
                target = min(
                    live,
                    key=lambda ref: (
                        len(session["assignments"].get(ref.engine_id, [])),
                        ref.engine_id,
                    ),
                )
            worker = self.gram.scheduler.element.worker(target.worker)
            part, content = session["orphaned"][0]
            dataset = session["dataset"]
            dataset_id = dataset.dataset_id if dataset else session_id
            try:
                yield self.ftp.transfer_file(
                    self.storage,
                    worker,
                    f"{dataset_id}.part{part.part_index}.redispatch",
                    part.size_mb,
                    read_disk=True,
                    write_disk=True,
                )
            except (TransferError, LinkDown):
                # Could not reach the target; leave the part orphaned for
                # the next sweep (the target will be quarantined if it is
                # the one that died).
                return
            # Record the assignment *before* waiting for the ack: if the
            # target dies mid-takeover its quarantine re-orphans the part.
            session["orphaned"].pop(0)
            session["assignments"].setdefault(target.engine_id, []).append(
                (part, content)
            )
            if self.replicas is not None and dataset is not None:
                key = self.replicas.catalog.part_key(
                    dataset.dataset_id,
                    dataset.strategy,
                    len(dataset.parts),
                    part.part_index,
                    part.start_event,
                    part.stop_event,
                )
                self.replicas.record_worker_part(
                    dataset.dataset_id,
                    key,
                    target.worker,
                    part.size_mb,
                    session_id,
                )
            session["redispatches"].append(
                {
                    "part": part.part_index,
                    "to": target.engine_id,
                    "at": self.env.now,
                }
            )
            self._log(
                session_id,
                "dispatch",
                engine_id=target.engine_id,
                part_index=part.part_index,
            )
            self.obs.metrics.counter(
                "session_redispatches_total",
                "Orphaned partitions re-dispatched to a live engine",
            ).inc()
            self.obs.events.emit(
                "engine_redispatched",
                message=(
                    f"part {part.part_index} -> {target.engine_id}"
                    f" on {target.worker}"
                ),
                session=session_id,
                engine=target.engine_id,
                worker=target.worker,
                part=part.part_index,
            )
            ack = self.env.event()
            session["pending_acks"].append(ack)
            yield target.mailbox.put(
                ("takeover", part, content, ack, session["running"])
            )
            timeout = self.env.timeout(config.dispatch_ack_timeout)
            yield self.env.any_of([ack, timeout])
            if not ack.triggered:
                # Target went silent mid-takeover; the monitor's next
                # sweep will quarantine it and re-orphan the part.
                return
        self._maybe_end_recovery(session_id)

    def _maybe_end_recovery(self, session_id: str) -> None:
        """Clear the AIDA ``recovering`` gate once recovery truly ended.

        "Ended" means no orphaned parts remain *and* every dispatched
        takeover was acknowledged (the target published a non-final
        snapshot), so ``MergeProgress.complete`` cannot flip true while a
        re-staged partition is still unaccounted for.
        """
        session = self._sessions.get(session_id)
        if session is None or session["closed"]:
            return
        session["pending_acks"] = [
            ack for ack in session["pending_acks"] if not ack.triggered
        ]
        if not session["orphaned"] and not session["pending_acks"]:
            self.aida.set_recovering(session_id, False)
            for record in session["recoveries"]:
                span = record.get("span")
                if span is not None and not span.finished:
                    span.finish(recovered_at=self.env.now)
                    self.obs.metrics.histogram(
                        "fault_recover_seconds",
                        "Quarantine to recovery-complete latency "
                        "(simulated seconds)",
                    ).observe(self.env.now - record["detected_at"])

    def _start_spare(self, session_id: str):
        """Submit a replacement engine on a spare worker (generator).

        Returns its :class:`EngineReference`, or ``None`` when no spare
        came up within ``RecoveryConfig.spare_timeout`` (the caller then
        falls back to a surviving engine).
        """
        session = self._sessions[session_id]
        config = self.recovery
        index = session["next_engine_index"]
        session["next_engine_index"] = index + 1
        host = self._engine_host(session_id, index)
        engine_id = host.engine_id
        try:
            submission = self.gram.submit(
                JobDescription("ipa-analysis-engine", count=1),
                session["chain"],
                lambda _index: host.body,
            )
        except (GramError, SecurityError) as exc:
            # Gatekeeper outage/refusal, or a recovered session whose
            # credential chain has not been refreshed by reconnect() yet.
            self._spare_start_failed(session_id, engine_id, exc)
            return None
        session["spare_submissions"].append(submission)
        session["engine_jobs"][engine_id] = submission.jobs[0]
        deadline = self.env.now + config.spare_timeout
        while True:
            refs = {
                ref.engine_id: ref for ref in self.registry.engines(session_id)
            }
            if engine_id in refs:
                reference = refs[engine_id]
                break
            if self.env.now >= deadline:
                self.gram.cancel(submission, "spare-timeout")
                return None
            arrival = self.registry.wait_for(
                session_id, self.registry.count(session_id) + 1
            )
            timeout = self.env.timeout(deadline - self.env.now)
            yield self.env.any_of([arrival, timeout])
        session["hosts"][engine_id] = host
        session["references"].append(reference)
        self.aida.set_expected_engines(session_id, len(session["references"]))
        self._log(
            session_id,
            "engine_joined",
            engine_id=engine_id,
            worker=reference.worker,
        )
        if session["monitor"] is not None:
            session["monitor"].watch(engine_id)
        # Ship the session's current analysis code to the newcomer.
        try:
            bundle = self.codeloader.current(session_id)
        except CodeLoaderError as exc:
            # Nothing staged (yet): the spare joins bare and gets the code
            # with everyone else on the next stage_code.
            self._spare_start_failed(session_id, engine_id, exc)
            bundle = None
        if bundle is not None:
            worker = self.gram.scheduler.element.worker(reference.worker)
            yield self.codeloader.stage(session_id, bundle, [worker])
            yield reference.mailbox.put(("load_code", bundle))
        return reference

    def _spare_start_failed(
        self, session_id: str, engine_id: str, exc: Exception
    ) -> None:
        self.obs.events.emit(
            "spare_start_failed",
            message=f"{engine_id}: {exc}",
            severity="warning",
            session=session_id,
            engine=engine_id,
            error=repr(exc),
        )

    # -- shutdown ------------------------------------------------------------
    def close(self, session_id: str):
        """End the session: shut engines down, cancel jobs, free the
        resource (generator operation).  Idempotent, and safe when engines
        are dead or hung — stragglers are force-cancelled after the
        recovery grace period instead of deadlocking the close.

        Idempotency holds *across a recovery boundary* too: closing a
        session whose close completed before a service crash finds the
        journal tombstone and returns True without re-running the
        teardown — replicas are not double-unpinned and no ``replica_*``
        metric is double-counted.
        """
        if self._down:
            raise ServiceUnavailable("session service is down")
        session = self._sessions.get(session_id)
        if session is None:
            if session_id in self._tombstones or self._closed_in_journal(
                session_id
            ):
                return True
            raise SessionError(f"no active session {session_id!r}")
        if session["closed"]:
            return True
        session["closing"] = True
        self._log(session_id, "closing")
        for ref in list(session["references"]):
            yield ref.mailbox.put(("shutdown",))
        # Engines drain their mailboxes and exit; wait for the jobs to end,
        # then cancel any stragglers (idempotent on completed jobs).
        done_events = [session["submission"].all_done] + [
            spare.all_done for spare in session["spare_submissions"]
        ]
        all_done = self.env.all_of(done_events)
        if self.recovery is None:
            yield all_done
        else:
            grace = self.env.timeout(self.recovery.close_grace)
            yield self.env.any_of([all_done, grace])
            if not all_done.triggered:
                # A hung engine never read its shutdown directive and the
                # monitor has not (yet) cancelled it: force the issue.
                self.gram.cancel(session["submission"], "session-end")
                for spare in session["spare_submissions"]:
                    self.gram.cancel(spare, "session-end")
                yield all_done
        self.gram.cancel(session["submission"], "session-end")
        for spare in session["spare_submissions"]:
            self.gram.cancel(spare, "session-end")
        self.registry.drop_session(session_id)
        self.codeloader.drop_session(session_id)
        self.aida.drop_session(session_id)
        if self.replicas is not None:
            # The session's cached parts stay behind (warm for the next
            # session) but are no longer pinned against eviction.
            self.replicas.unpin_session(session_id)
        self.resources.set_property(session["ref"], "state", "closed")
        self.resources.destroy(session["ref"])
        # A closed session holds nothing: the record (hosts, jobs,
        # references, submissions, credential chain) shrinks to the flag a
        # repeated close() or a late status() reads.  Background loops
        # still asleep hold the old record and exit on its flag.
        session["closed"] = True
        self._sessions[session_id] = {"closed": True}
        if self.admission is not None and session.get("admission"):
            # Return the VO's engine slots; queued admissions are served
            # weighted-fair off this release.
            self.admission.release(*session["admission"])
            session["admission"] = None
        # Lift any straggler hints the session left on the scheduler and
        # drop its anomaly series.
        for worker in sorted(set(session["straggler_hints"].values())):
            self.gram.scheduler.restore_priority(worker)
        session["straggler_hints"] = {}
        self.obs.anomaly.forget_session(session_id)
        self.obs.events.emit(
            "session_closed",
            message=session_id,
            session=session_id,
        )
        # Tombstone first (write-ahead), then drop the checkpoint file —
        # after a crash the journal alone must prove the close happened.
        self._log(session_id, "closed")
        self._checkpoint_store(session_id).delete()
        self._checkpoints.pop(session_id, None)
        return True

    # -- durable checkpoints & service crash/recovery -----------------------
    def _checkpoint_loop(self, session_id: str):
        """Periodically checkpoint one session's merge state (generator).

        Durable writes charge zero simulated time — the loop only adds
        timeout events — so enabling durability does not perturb any
        calibrated timing.  A service crash interrupts the loop.
        """
        config = self.durability
        try:
            while True:
                yield self.env.timeout(config.checkpoint_every_s)
                session = self._sessions.get(session_id)
                if session is None or session["closed"]:
                    return
                self.write_checkpoint(session_id)
        except Interrupt:
            return

    def write_checkpoint(self, session_id: str, torn: bool = False):
        """Write one durable checkpoint now; returns its kind.

        WAL ordering: the journal is synced first, so a checkpoint can
        never describe state the journal cannot explain.  ``torn`` models
        a crash mid-flush (only half the record reaches the disk).
        """
        session = self._sessions.get(session_id)
        if session is None or session["closed"]:
            return None
        store = self._checkpoint_store(session_id)
        self._journal(session_id).sync()
        span = self.obs.tracer.start(
            "checkpoint.write",
            parent_id=session.get("trace_parent"),
            session=session_id,
        )
        session_state = {
            "rewinds": session.get("rewinds", 0),
            "running": session["running"],
        }
        merge_state = self.aida.checkpoint_state(session_id)
        kind = store.write(session_state, merge_state, torn=torn)
        span.finish(kind=kind)
        self.obs.metrics.counter(
            "checkpoint_writes_total",
            "Durable session checkpoints written, by kind",
        ).inc(kind=kind)
        if not torn:
            self.obs.events.emit(
                "checkpoint_committed",
                message=f"{session_id} {kind}",
                severity="debug",
                session=session_id,
                kind=kind,
            )
        return kind

    def resync_engines(self, session_id: str, engine_ids):
        """Ask the named live engines to republish full keyframes.

        Generator (mailbox puts yield).  Used after a combiner crash:
        the lost leaf caches heal on each engine's next delta via the
        ``"resync"`` reply, but engines that already *finished* would
        never resend — the explicit republish directive covers them.
        Returns the number of directives sent.
        """
        session = self._sessions.get(session_id)
        if session is None or session["closed"]:
            return 0
        wanted = set(engine_ids)
        sent = 0
        for reference in sorted(
            session["references"], key=lambda r: r.engine_id
        ):
            if reference.engine_id in wanted:
                yield reference.mailbox.put(("republish",))
                sent += 1
        return sent

    def crash(self, torn_checkpoint: bool = False) -> None:
        """The manager-node service processes die (injected fault).

        Volatile session state is wiped (the durable store survives,
        minus any unsynced journal tail), every live session's RMI token
        is revoked, the background monitor/checkpoint/re-dispatch loops
        are interrupted, and the AIDA manager goes down too.  With
        ``torn_checkpoint`` each live session first flushes *half* a
        checkpoint record — the crash-mid-flush case recovery must
        tolerate.
        """
        if torn_checkpoint:
            for session_id, session in list(self._sessions.items()):
                if not session["closed"]:
                    self.write_checkpoint(session_id, torn=True)
        for session in self._sessions.values():
            for key in ("monitor_proc", "checkpoint_proc", "redispatch_proc"):
                proc = session.get(key)
                if proc is not None and proc.is_alive:
                    proc.interrupt("service-crash")
                session[key] = None
            if not session["closed"]:
                self.container.revoke_token(session["token"])
        self._sessions = {}
        self._journals = {}
        self._checkpoints = {}
        self.resources = ResourceHome(
            self.env, "session", self._session_lifetime
        )
        self._down = True
        self.durability.store.crash()
        self.aida.crash()
        self.obs.metrics.counter(
            "service_crashes_total",
            "SessionService/AIDA-manager process crashes injected",
        ).inc()
        self.obs.events.emit(
            "service_crash",
            message="session/AIDA manager processes down",
            severity="error",
            torn_checkpoint=torn_checkpoint,
        )

    def recover(self):
        """Cold-start recovery from the durable store (generator).

        Replays every session journal, restores merge state from the last
        committed checkpoint (discarding it if it predates a journalled
        rewind), re-binds still-running engines through the surviving
        registry, quarantines engines that died during the downtime, and
        directs every live engine to republish a full keyframe.  Charges
        one SOAP round-trip plus one merge cost per reconciled engine
        tree on the simulated clock.
        """
        started = self.env.now
        span = self.obs.tracer.start("service.recover")
        self.aida.restart()
        self._down = False
        restored_sessions = 0
        reconciled_engines = 0
        for session_id in SessionJournal.session_ids(self.durability.store):
            model = replay_journal(self._journal(session_id).records())
            if model is None:
                continue
            if model.closed:
                # Finished before the crash: only the tombstone matters
                # (keeps close() idempotent and zombie submissions
                # dropped).
                self._tombstones.add(session_id)
                self.aida.mark_dropped(session_id)
                continue
            reconciled_engines += yield from self._recover_session(
                session_id, model
            )
            restored_sessions += 1
        yield self.env.timeout(
            self.calibration.soap_latency_s
            + self.aida.merge_cost_per_tree * reconciled_engines
        )
        metrics = self.obs.metrics
        metrics.counter(
            "service_recovery_total", "Service cold-start recoveries run"
        ).inc()
        if restored_sessions:
            metrics.counter(
                "service_recovery_sessions_total",
                "Sessions rebuilt by service cold-start recovery",
            ).inc(restored_sessions)
        metrics.histogram(
            "service_recovery_seconds",
            "Service restart to sessions-recovered latency "
            "(simulated seconds)",
        ).observe(self.env.now - started)
        span.finish(sessions=restored_sessions, engines=reconciled_engines)
        self.obs.events.emit(
            "service_recovered",
            message=(
                f"{restored_sessions} sessions rebuilt,"
                f" {reconciled_engines} engine trees reconciled"
            ),
            sessions=restored_sessions,
            engines=reconciled_engines,
        )
        return restored_sessions

    def _recover_session(self, session_id: str, model: JournalModel):
        """Rebuild one session from its journal + checkpoint (generator).

        Returns the number of engine trees reconciled (restored from the
        checkpoint or republished by a live engine) — the recovery cost
        model's unit of work.
        """
        span = self.obs.tracer.start(
            "session.recover_state", session=session_id
        )
        ref = self.resources.create(
            {
                "owner": model.owner,
                "state": "recovering",
                "engines": model.n_engines,
            },
            resource_id=session_id,
        )
        self.container.issue_token(model.token)

        # Re-bind engines that are still alive: the registry (and the
        # EngineHost processes out on the workers) survived the crash.
        live = {r.engine_id: r for r in self.registry.engines(session_id)}
        references: List[EngineReference] = []
        hosts: Dict[str, EngineHost] = {}
        engine_jobs: Dict[str, object] = {}
        next_index = model.n_engines
        for engine_id in list(model.engines) + sorted(model.banned):
            suffix = engine_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                next_index = max(next_index, int(suffix) + 1)
        for engine_id in sorted(model.engines):
            reference = live.get(engine_id)
            if reference is None:
                continue
            references.append(reference)
            if reference.host is not None:
                hosts[engine_id] = reference.host
            job = self.gram.scheduler.running_job_on(reference.worker)
            if job is not None:
                engine_jobs[engine_id] = job
        references.sort(key=lambda r: (r.registered_at, r.engine_id))

        dataset = None
        parts_by_index: Dict[int, PartDescriptor] = {}
        if model.dataset_id is not None:
            parts = [PartDescriptor(**p) for p in model.parts]
            parts_by_index = {p.part_index: p for p in parts}
            staged = model.staged
            dataset = StagedDataset(
                dataset_id=model.dataset_id,
                size_mb=model.size_mb,
                n_events=model.n_events,
                content=model.content,
                parts=parts,
                fetch_seconds=staged.get("fetch_seconds", 0.0),
                split_seconds=staged.get("split_seconds", 0.0),
                move_parts_seconds=staged.get("move_parts_seconds", 0.0),
                strategy=model.strategy,
                local_hits=staged.get("local_hits", 0),
                peer_hits=staged.get("peer_hits", 0),
                se_hits=staged.get("se_hits", 0),
                cold_parts=staged.get("cold_parts", 0),
                fetch_skipped=staged.get("fetch_skipped", False),
                saved_mb=staged.get("saved_mb", 0.0),
            )
        assignments: Dict[str, list] = {}
        for engine_id in model.engines:
            pairs = [
                (parts_by_index[idx], model.content)
                for idx in model.assignments.get(engine_id, [])
                if idx in parts_by_index
            ]
            if pairs:
                assignments[engine_id] = pairs
        orphaned = [
            (parts_by_index[idx], model.content)
            for idx in model.orphaned
            if idx in parts_by_index
        ]

        session = self._session_record(
            ref=ref,
            context=_RecoveredContext(model.owner),
            # The client's credential chain is security material, never
            # journalled: reconnect() refreshes it.  Until then
            # spare-engine GRAM submits fail closed and re-dispatch falls
            # back to surviving engines.
            chain=[],
            submission=_RecoveredSubmission(
                self.env, list(engine_jobs.values())
            ),
            hosts=hosts,
            references=references,
            engine_jobs=engine_jobs,
            token=model.token,
            # The crashed service never released the VO's engine slots, so
            # a recovered session still holds them: record the grant (do
            # NOT re-acquire) so close() returns the slots.
            admission=(
                (
                    self.gram.authz.vo_of(model.owner) or model.owner,
                    model.n_engines,
                )
                if self.admission is not None
                else None
            ),
            next_engine_index=next_index,
            trace_parent=span.span_id,
            assignments=assignments,
            orphaned=orphaned,
            dataset=dataset,
            running=model.running,
            closing=model.closing,
            rewinds=model.rewinds,
        )
        self._sessions[session_id] = session
        self.aida.set_expected_engines(session_id, len(model.engines))
        if model.rewinds:
            self.aida.begin_run(session_id, model.rewinds)

        # Merge state: last committed checkpoint, unless it predates a
        # journalled rewind (then it describes a dead run).
        restored = 0
        loaded = self._checkpoint_store(session_id).load()
        if loaded is not None:
            ckpt_session, merge_state = loaded
            if ckpt_session.get("rewinds", 0) >= model.rewinds:
                self.aida.restore_state(session_id, merge_state)
                restored = len(merge_state.get("engines", {}))
        # Replay the ban set on top (quarantines after the checkpoint).
        for engine_id in sorted(model.banned):
            self.aida.discard_engine(session_id, engine_id)

        # Re-pin this session's replica keys wherever the parts still sit.
        if self.replicas is not None:
            for key in model.pin_keys:
                for cache in self.replicas.caches.values():
                    if key in cache:
                        cache.pin(key, session_id)

        self._arm_background_loops(session_id)

        # Engines the journal believed alive but that deregistered (died)
        # during the downtime: quarantine now; the monitor's sweeps
        # re-dispatch the orphaned parts.
        for engine_id in sorted(model.engines):
            if engine_id not in live:
                self._quarantine(session_id, engine_id)
        if session["orphaned"] or session["pending_acks"]:
            self.aida.set_recovering(session_id, True)

        # Make sure the merge tree is planned even when no checkpoint
        # carried its topology (restore_state rebuilds it otherwise).
        self.aida.configure_tier(
            session_id, [reference.engine_id for reference in references]
        )

        # Ask every live engine for a full keyframe: covers everything the
        # last checkpoint missed, including engines that finished during
        # the downtime (their final snapshot died with the old process).
        resyncs = 0
        for reference in sorted(references, key=lambda r: r.engine_id):
            yield reference.mailbox.put(("republish",))
            resyncs += 1
        if resyncs:
            self.obs.metrics.counter(
                "service_recovery_resyncs_total",
                "Live engines asked to republish a keyframe on recovery",
            ).inc(resyncs)

        self.resources.set_property(ref, "state", "ready")
        if model.dataset_id is not None:
            self.resources.set_property(ref, "dataset", model.dataset_id)
        self._maybe_end_recovery(session_id)
        span.finish(engines=len(references), restored=restored)
        return max(restored, resyncs)

    def reconnect(
        self,
        session_id: str,
        context: SecurityContext,
        credential_chain: List[Certificate],
    ) -> SessionInfo:
        """Re-attach a client to its (possibly recovered) session.

        Refreshes the session's security material — the credential chain
        is lost in a crash (never journalled) and is needed for
        spare-engine GRAM submits — and returns a fresh
        :class:`SessionInfo` carrying the session's RMI token.
        """
        if self._down:
            raise ServiceUnavailable("session service is down")
        session = self._sessions.get(session_id)
        if session is None or session["closed"]:
            if self._closed_in_journal(session_id):
                raise SessionError(f"session {session_id!r} is closed")
            raise SessionError(f"no active session {session_id!r}")
        if session["context"].identity != context.identity:
            raise SessionError(
                "reconnect identity does not match the session owner"
            )
        session["context"] = context
        session["chain"] = list(credential_chain)
        return SessionInfo(
            session_id=session_id,
            resource=session["ref"],
            token=session["token"],
            n_engines=len(session["references"]),
            engine_ids=sorted(
                ref.engine_id for ref in session["references"]
            ),
        )


class _RecoveredContext:
    """Security-context stand-in for a recovered session.

    Only the owner identity survives in the journal; the full context is
    re-established when the client reconnects.
    """

    def __init__(self, identity: str) -> None:
        self.identity = identity


class _RecoveredSubmission:
    """GramSubmission stand-in wrapping the jobs still running on workers.

    Exposes exactly what ``status()``/``close()`` need: the ``jobs`` list
    and an ``all_done`` condition (already-finished jobs are fine — the
    kernel's AllOf handles pre-triggered and empty event lists).
    """

    def __init__(self, env: Environment, jobs: list) -> None:
        self.jobs = list(jobs)
        self.all_done = env.all_of([job.done for job in self.jobs])


class _HostProxy:
    """Minimal Node-like stand-in for a bare network host (origin archive)."""

    def __init__(self, name: str, env: Environment) -> None:
        self.name = name
        self.env = env
        self.disk_files: dict = {}

    def disk_read(self, size_mb: float):  # pragma: no cover - not used
        def io():
            yield self.env.timeout(0.0)

        return self.env.process(io())

    def disk_write(self, size_mb: float):  # pragma: no cover - not used
        return self.disk_read(size_mb)

    def store_file(self, name: str, size_mb: float) -> None:
        self.disk_files[name] = size_mb
