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
The service also survives *its own* crash.  A session's durable state is
one frozen :class:`SessionState`, and :func:`apply` is the only place a
transition of it is defined: the live service commits every transition
as a journal record (write-ahead, to the manager node's durable store)
and then applies that record to its state.  The merge state is
checkpointed periodically beside it.  ``crash()`` models the service
process dying (volatile state lost, tokens revoked, endpoints raising
:class:`~repro.resilience.faults.ServiceUnavailable`); ``recover()`` is
the cold start that :func:`fold`\\ s each journal back into the same
state, re-attaches the volatile handles, restores the merge cache from
the last committed checkpoint, re-binds still-running engines through the
(surviving) registry, quarantines engines that died during the downtime,
and asks every live engine to republish a full keyframe — so the final
merged trees are bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import secrets
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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
from repro.resilience.journal import SessionJournal
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


@dataclass(frozen=True)
class StagedDataset:
    """Bookkeeping for the dataset currently attached to a session."""

    dataset_id: str
    size_mb: float
    n_events: int
    content: dict
    #: The split plan; ``parts[i].part_index == i``.
    parts: Tuple[PartDescriptor, ...]
    fetch_seconds: float = 0.0
    split_seconds: float = 0.0
    move_parts_seconds: float = 0.0
    #: Split strategy the parts were cut under (keys replicas by geometry).
    strategy: str = "by-events"
    #: Replica-cache outcome of this stage.
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


#: The ``StagedDataset`` fields a ``stage`` record carries under "staged".
_STAGE_EXTRAS = (
    "fetch_seconds", "split_seconds", "move_parts_seconds", "local_hits",
    "peer_hits", "se_hits", "cold_parts", "fetch_skipped", "saved_mb",
)


@dataclass(frozen=True)
class SessionState:
    """A session's durable state: what its journal records fold to."""

    session_id: str
    owner: str = ""
    token: str = ""
    n_engines: int = 0
    #: Engines believed alive: engine_id -> worker name.
    engines: Dict[str, str] = field(default_factory=dict)
    #: Engines quarantined (their AIDA ban set).
    banned: FrozenSet[str] = frozenset()
    dataset: Optional[StagedDataset] = None
    #: Dispatch map: engine_id -> indexes into ``dataset.parts``.
    assignments: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Part indexes orphaned by a quarantine and not yet re-dispatched.
    orphaned: Tuple[int, ...] = ()
    #: Replica-cache keys pinned for this session.
    pin_keys: Tuple[str, ...] = ()
    running: bool = False
    rewinds: int = 0
    closing: bool = False
    closed: bool = False


def apply(state: Optional[SessionState], record: dict) -> Optional[SessionState]:
    """The state after one journal *record*: the only definition of a
    durable session transition, for the live service and for recovery.

    ``None`` until a ``create`` record arrives.  Returns a new value and
    never mutates *state*; lists read back from JSON become tuples, so a
    record applies the same before and after its trip through the disk.
    """
    kind = record.get("type")
    data = record.get("data", {})
    if kind == "create":
        return SessionState(
            session_id=data["session_id"],
            owner=data.get("owner", ""),
            token=data.get("token", ""),
            n_engines=data.get("n_engines", 0),
            engines=dict(data.get("engines", {})),
        )
    if state is None:
        return None
    if kind == "stage":
        dataset = StagedDataset(
            dataset_id=data["dataset_id"],
            size_mb=data["size_mb"],
            n_events=data["n_events"],
            content=data["content"],
            parts=tuple(PartDescriptor(**part) for part in data["parts"]),
            strategy=data["strategy"],
            **data["staged"],
        )
        assignments, orphaned = {}, ()
        for engine_id, indexes in data["assignments"].items():
            if engine_id in state.engines:
                assignments[engine_id] = tuple(indexes)
            else:
                # Planned onto an engine quarantined while the stage ran:
                # its part is an orphan from the start.
                orphaned += tuple(indexes)
        return replace(
            state, dataset=dataset, assignments=assignments, orphaned=orphaned
        )
    if kind == "pins":
        return replace(state, pin_keys=tuple(data["keys"]))
    if kind == "control":
        verb = data["verb"]
        if verb in (Command.RUN, Command.STEP):
            return replace(state, running=True)
        if verb in (Command.PAUSE, Command.STOP):
            return replace(state, running=False)
        if verb == Command.REWIND:
            return replace(state, rewinds=state.rewinds + 1)
        return state
    if kind == "quarantine":
        # The dead engine's parts move to the orphan pool.
        engine_id = data["engine_id"]
        assignments = dict(state.assignments)
        lost = assignments.pop(engine_id, ())
        return replace(
            state,
            engines={e: w for e, w in state.engines.items() if e != engine_id},
            banned=state.banned | {engine_id},
            assignments=assignments,
            orphaned=state.orphaned + lost,
        )
    if kind == "dispatch":
        # One orphaned part moves to its new owner.
        engine_id, index = data["engine_id"], data["part_index"]
        orphaned = list(state.orphaned)
        if index in orphaned:
            orphaned.remove(index)
        owned = state.assignments.get(engine_id, ()) + (index,)
        return replace(
            state,
            orphaned=tuple(orphaned),
            assignments={**state.assignments, engine_id: owned},
        )
    if kind == "engine_joined":
        engines = {**state.engines, data["engine_id"]: data["worker"]}
        return replace(state, engines=engines)
    if kind == "closing":
        return replace(state, closing=True)
    if kind == "closed":
        return replace(state, closed=True)
    # "code" records are history only: nothing durable reads them back.
    return state


def fold(records: Iterable[dict]) -> Optional[SessionState]:
    """A session's durable state from its journal (``None`` without a
    ``create``): recovery's whole reading of the journal."""
    return reduce(apply, records, None)


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

    The host also runs a liveness loop that beats into the registry every
    ``heartbeat_interval``; the beat stops when the node hangs or its
    link goes down, which is what the session monitor detects.  The whole
    directive-handling chain runs inside the *one* job-body process (via
    ``yield from``), so a single kernel interrupt — a crash or hang
    injected by the failure injector — takes the entire engine down
    without leaving orphaned sub-processes behind.

    The host holds *views* of the process-wide cached content blocks, only
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
        heartbeat_interval: float,
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
        #: Per-chunk metrics and snapshot sizing: one branch, decided here.
        self._observed = self.obs.enabled
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
        status = self._submit(snapshot, combiner)
        if status == "resync":
            yield env.timeout(self.calibration.rmi_latency_s)
            full = self.engine.take_snapshot(final=snapshot.final, full=True)
            self._submit(full, combiner)

    def _submit(self, snapshot: Snapshot, combiner: Optional[str]) -> str:
        # The snapshot is fresh from the engine, seen by no one yet: its
        # route is stamped in place rather than by rebuilding it.
        object.__setattr__(snapshot, "combiner", combiner)
        if self._observed:
            self._payload_metric.inc(
                payload_nbytes(snapshot.tree),
                kind="full" if snapshot.base_sequence == 0 else "delta",
            )
        return self.aida.submit_snapshot(self.session_id, snapshot)

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
            if result.events > 0 and self._observed:
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

    Every session gets a monitor loop implementing the failure model
    documented in the module docstring (tuned by *recovery*), and every
    stage consults the replica catalog of *replicas* first.
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
        recovery: RecoveryConfig,
        replicas: "ReplicaManager",
        session_lifetime: Optional[float] = None,
        obs: Optional[Observability] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.env = env
        self.obs = obs or NULL_OBS
        #: Replica catalog + staging caches.
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
        return len(self._sessions)

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

    def _commit(
        self, session_id: str, record_type: str, /, **data
    ) -> Optional[SessionState]:
        """Make one durable transition: journal the record write-ahead (no
        simulated time), then ``apply`` it to the live session's state.

        Returns the new state (``None`` when the session is not live: a
        late record still reaches the journal, and recovery folds it).
        """
        record = self._journal(session_id).append(record_type, **data)
        session = self._sessions.get(session_id)
        if session is None:
            return None
        session["state"] = apply(session["state"], record)
        return session["state"]

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
        """Whether the durable journal tombstones this session as closed
        (read through an uncached reader: a closed session keeps none)."""
        state = fold(SessionJournal(self.durability.store, session_id).records())
        return state is not None and state.closed

    def closed_before_crash(self, session_id: str) -> bool:
        """Whether this session's close completed before a service crash.

        True only after a recovery found the journal tombstone; closing
        such a session again is an idempotent no-op rather than a
        ``SessionError``.
        """
        return session_id in self._tombstones

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
        engine placement then prefers workers already caching parts of it
        (data affinity), maximizing local hits when the dataset is staged.
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
        if dataset_hint is not None:
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
        self._sessions[session_id] = self._session_record(
            ref=ref,
            chain=list(credential_chain),
            submission=submission,
            hosts=hosts,
            references=list(references),
            engine_jobs={
                f"{session_id}-engine-{index}": job
                for index, job in enumerate(submission.jobs)
            },
            # (vo, slots) held at the admission controller, if any.
            admission=admitted,
            next_engine_index=count,
            # Trace context of the creating call: recovery work started by
            # the background monitor parents here instead of floating free.
            trace_parent=self.obs.tracer.current_id,
            state=None,
        )
        self.aida.set_expected_engines(session_id, count)
        # Plan the session's merge tree now that its engines are known.
        self.aida.configure_tier(
            session_id, [reference.engine_id for reference in references]
        )
        self._commit(
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
            heartbeat_interval=self.recovery.heartbeat_interval,
            obs=self.obs,
        )

    @staticmethod
    def _session_record(**fields) -> dict:
        """The record of one session: its durable ``"state"`` (a
        :class:`SessionState` only ``_commit`` replaces) beside the
        volatile handles.  Both builders (start and recovery) supply
        ``ref, chain, submission, hosts, references, engine_jobs,
        admission, next_engine_index, trace_parent, state``.
        """
        session = {
            "spare_submissions": [],
            "pending_acks": [],
            "recoveries": [],
            "redispatches": [],
            "unrecoverable": False,
            "monitor": None,
            "monitor_proc": None,
            "checkpoint_proc": None,
            "redispatch_proc": None,
        }
        session.update(fields)
        return session

    def _arm_background_loops(self, session_id: str) -> None:
        """Start the session's heartbeat monitor and checkpoint loop."""
        session = self._sessions[session_id]
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
        if session is None:
            raise SessionError(f"no active session {session_id!r}")
        return session

    def token(self, session_id: str) -> str:
        """The session's RMI token."""
        return self._session(session_id)["state"].token

    # -- dataset staging ------------------------------------------------------
    def add_dataset(
        self,
        session_id: str,
        dataset_id: str,
        strategy: str = "by-events",
        streams: Optional[int] = None,
    ):
        """Stage a dataset onto the session's workers (generator operation).

        One path for every stage: the replica plan says where each part
        comes from (a fully cold stage is a plan with every part
        missing).  The catalog is consulted only when it knows the
        dataset, the whole file is fetched only when a split needs it
        and the SE lacks it, and the splitter's pipeline produces the
        missing parts and moves every part the workers lack.  The copies
        the stage leaves behind are recorded, so the next stage is warm.
        Returns the :class:`StagedDataset` bookkeeping (with the
        per-phase timing breakdown the benchmarks print).
        """
        session = self._session(session_id)
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
        parts = self.splitter.plan_parts(
            location, [ref.worker for ref in references], strategy
        )
        plan = rm.plan_sources(location, strategy, parts, keys)

        # The split phase is the catalog consult plus production, never
        # the WAN fetch; without a consult it starts with the pipeline.
        started = None
        if not plan.fully_cold or (
            location.origin_host is not None and rm.has_whole(location)
        ):
            # One SOAP round trip.  A dataset the catalog has never seen
            # is a local lookup: a cold stage adds nothing to Table 2.
            started = self.env.now
            yield self.env.timeout(self.calibration.soap_latency_s)
        need_split = bool(plan.missing) and location.kind != "database"
        fetch_seconds = 0.0
        if need_split and not rm.has_whole(location):
            fetch_seconds = yield from self._fetch_whole(location)
            if started is not None:
                started += fetch_seconds
        fetch_skipped = location.origin_host is not None and not fetch_seconds

        def record_split():
            # A split pass leaves every part file of the geometry on the SE.
            for part, key in zip(parts, keys):
                if not rm.se_has_part(key):
                    rm.record_se_part(dataset_id, key, part.size_mb)

        # A stage the catalog knows registers the split's part files as the
        # split ends; a cold stage registers every copy as it completes.
        record_now = need_split and started is not None
        if len(plan.local) < len(parts):  # something to produce or move
            element = self.gram.scheduler.element
            report: StageReport = yield self.splitter.split_and_scatter(
                location,
                [element.worker(ref.worker) for ref in references],
                streams=streams,
                plan=plan,
                fetch_peer=lambda source: self._peer_fetch(
                    location, source, streams
                ),
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
            rm.record_worker_part(
                dataset_id, s.key, s.worker, s.size_mb, session_id
            )
        rm.note_stage(
            plan, fetch_skipped_mb=location.size_mb if fetch_skipped else 0.0
        )
        staged = StagedDataset(
            dataset_id=dataset_id,
            size_mb=location.size_mb,
            n_events=location.n_events,
            content=entry.content,
            parts=tuple(parts),
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
        # Record the plan and who owns what (the recovery monitor
        # re-dispatches these assignments when an engine dies) before any
        # engine loads its part descriptor + the content recipe.
        self._commit(
            session_id,
            "stage",
            dataset_id=staged.dataset_id,
            strategy=staged.strategy,
            size_mb=staged.size_mb,
            n_events=staged.n_events,
            content=staged.content,
            parts=[asdict(part) for part in staged.parts],
            assignments={
                ref.engine_id: [part.part_index]
                for ref, part in zip(references, staged.parts)
            },
            staged={name: getattr(staged, name) for name in _STAGE_EXTRAS},
        )
        state = self._commit(session_id, "pins", keys=list(keys))
        if state is not None and state.orphaned:
            # The monitor re-dispatches the dead engine's part; hold the
            # merge open until it is taken over.
            self.aida.set_recovering(session_id, True)
        for ref, part in zip(references, staged.parts):
            yield ref.mailbox.put(("load_data", part, entry.content))
        self.resources.set_property(session["ref"], "dataset", dataset_id)
        return staged

    def _fetch_whole(self, location: DatasetLocation):
        """Move the whole file from its origin to the SE (generator).

        "Locate and transfer large dataset file" (Fig. 1).  Records the SE
        copy so later sessions on this dataset do not re-download it
        across the WAN; returns the fetch wall-clock in seconds.
        """
        tracer = self.obs.tracer
        started = self.env.now
        fetch_span = tracer.child(
            "stage.fetch",
            phase="move_whole",
            dataset=location.dataset_id,
            mb=location.size_mb,
        )
        with tracer.activate(fetch_span):
            fetch = self.ftp.transfer_file(
                _HostProxy(location.origin_host),
                self.storage,
                f"{location.dataset_id}.whole",
                location.size_mb,
                read_disk=False,
                write_disk=False,
            )
        yield fetch
        fetch_span.finish()
        self.replicas.record_whole(location)
        return self.env.now - started

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
        name = self.splitter.part_file(location, source.part)
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
        # The engines live now: a spare that joined while the code was in
        # flight found no current bundle to load.
        for ref in session["references"]:
            yield ref.mailbox.put(("load_code", bundle))
        code_span.finish()
        self._commit(
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
        # Write-ahead: the verb is durable before any engine acts on it.
        state = self._commit(session_id, "control", verb=verb)
        if verb == Command.REWIND:
            # Invalidate the previous run's merged results immediately so a
            # poll between rewind and the first new snapshot cannot return
            # stale (complete-looking) data.
            self.aida.begin_run(session_id, state.rewinds)
        starts = verb in (Command.RUN, Command.STEP)
        for ref in session["references"]:
            if starts and state.dataset is not None and (
                not state.assignments.get(ref.engine_id)
            ):
                # A spare that holds no part yet: its takeover resumes it,
                # a run now would find nothing staged to read.
                continue
            yield ref.mailbox.put(("control", verb, argument))
        return len(session["references"])

    # -- status ------------------------------------------------------------
    def status(self, session_id: str) -> dict:
        """Summary of the session's engines and staged dataset."""
        session = self._session(session_id)
        state = session["state"]
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
            "owner": state.owner,
            "n_engines": len(session["references"]),
            "dataset": state.dataset.dataset_id if state.dataset else None,
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
            "orphaned_parts": len(state.orphaned),
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

        One sweep per ``RecoveryConfig.heartbeat_interval``: first *every*
        stale engine is quarantined (so a multi-failure never re-dispatches
        onto a worker that is itself about to be declared dead), then
        orphaned partitions are re-dispatched.  Runs until the session closes; while
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
        session = self._sessions.get(session_id)
        if session is None:
            return
        monitor = session["monitor"]
        while True:
            if session["state"].closed:
                return
            yield self.env.timeout(self.recovery.heartbeat_interval)
            if session["state"].closed:
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
            state = session["state"]
            if state.orphaned and not state.closing:
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
            self._maybe_end_recovery(session_id)

    def _quarantine(self, session_id: str, engine_id: str) -> dict:
        """Declare an engine dead: ban its results, orphan its partitions."""
        session = self._sessions[session_id]
        session["monitor"].unwatch(engine_id)
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
        if dead_ref is not None:
            # A dead worker's cache contents are gone with it: drop its
            # replica records so no later stage plans a peer fetch from it.
            self.replicas.invalidate_host(dead_ref.worker)
        session["references"] = [
            ref for ref in session["references"] if ref.engine_id != engine_id
        ]
        self.aida.set_expected_engines(session_id, len(session["references"]))
        session["hosts"].pop(engine_id, None)
        orphaned = session["state"].assignments.get(engine_id, ())
        record = {
            "engine_id": engine_id,
            "cause": cause,
            "detected_at": self.env.now,
            "parts": len(orphaned),
            "span": recovery_span,
        }
        session["recoveries"].append(record)
        self._commit(session_id, "quarantine", engine_id=engine_id)
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
        session = self._sessions.get(session_id)
        if session is None:
            return
        while True:
            state = session["state"]
            if not state.orphaned or state.closing or state.closed:
                break
            target: Optional[EngineReference] = None
            if self.gram.scheduler.available_worker_count > 0:
                target = yield from self._start_spare(session_id)
            state = session["state"]
            if not state.orphaned:
                break  # a re-stage while the spare came up replaced the plan
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
                        len(state.assignments.get(ref.engine_id, ())),
                        ref.engine_id,
                    ),
                )
            worker = self.gram.scheduler.element.worker(target.worker)
            # Orphans are indexes into the stage that produced them.
            dataset = state.dataset
            part = dataset.parts[state.orphaned[0]]
            try:
                yield self.ftp.transfer_file(
                    self.storage,
                    worker,
                    f"{dataset.dataset_id}.part{part.part_index}.redispatch",
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
            self._commit(
                session_id,
                "dispatch",
                engine_id=target.engine_id,
                part_index=part.part_index,
            )
            key = self.replicas.catalog.part_key(
                dataset.dataset_id,
                dataset.strategy,
                len(dataset.parts),
                part.part_index,
                part.start_event,
                part.stop_event,
            )
            self.replicas.record_worker_part(
                dataset.dataset_id, key, target.worker, part.size_mb, session_id
            )
            session["redispatches"].append(
                {
                    "part": part.part_index,
                    "to": target.engine_id,
                    "at": self.env.now,
                }
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
                (
                    "takeover", part, dataset.content, ack,
                    session["state"].running,
                )
            )
            timeout = self.env.timeout(self.recovery.dispatch_ack_timeout)
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
        if session is None:
            return
        session["pending_acks"] = [
            ack for ack in session["pending_acks"] if not ack.triggered
        ]
        if not session["state"].orphaned and not session["pending_acks"]:
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
        deadline = self.env.now + self.recovery.spare_timeout
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
        # The newcomer joins the session's current run: its snapshots must
        # not read as leftovers from before the last rewind.
        for _ in range(session["state"].rewinds):
            host.engine.rewind()
        session["references"].append(reference)
        self.aida.set_expected_engines(session_id, len(session["references"]))
        self._commit(
            session_id,
            "engine_joined",
            engine_id=engine_id,
            worker=reference.worker,
        )
        session["monitor"].watch(engine_id)
        try:
            yield from self._ship_code(session_id, reference)
        except CodeLoaderError as exc:
            # Nothing staged (yet): the spare joins bare and gets the code
            # with everyone else on the next stage_code.
            self._spare_start_failed(session_id, engine_id, exc)
        return reference

    def _ship_code(self, session_id: str, reference: EngineReference):
        """Stage the session's current analysis code to one engine
        (generator).  Raises :class:`CodeLoaderError` when none is staged.
        """
        bundle = self.codeloader.current(session_id)
        worker = self.gram.scheduler.element.worker(reference.worker)
        yield self.codeloader.stage(session_id, bundle, [worker])
        yield reference.mailbox.put(("load_code", bundle))

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

        A closed session leaves ``_sessions``; closing it again finds the
        journal tombstone and returns True without re-running the
        teardown — replicas are not double-unpinned and no ``replica_*``
        metric is double-counted.  This holds across a recovery boundary
        too.
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
        self._commit(session_id, "closing")
        for ref in list(session["references"]):
            yield ref.mailbox.put(("shutdown",))
        # Engines drain their mailboxes and exit; wait for the jobs to end,
        # then cancel any stragglers (idempotent on completed jobs).
        done_events = [session["submission"].all_done] + [
            spare.all_done for spare in session["spare_submissions"]
        ]
        all_done = self.env.all_of(done_events)
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
        # The session's cached parts stay behind (warm for the next
        # session) but are no longer pinned against eviction.
        self.replicas.unpin_session(session_id)
        self.resources.set_property(session["ref"], "state", "closed")
        self.resources.destroy(session["ref"])
        # Tombstone first (write-ahead), then drop the checkpoint file —
        # after a crash the journal alone must prove the close happened.
        self._commit(session_id, "closed")
        # A closed session holds nothing: the record (hosts, jobs,
        # references, submissions, credential chain) and its journal
        # reader leave the service.  Background loops still asleep hold
        # the old record and exit on its state.
        self._sessions.pop(session_id, None)
        self._journals.pop(session_id, None)
        if self.admission is not None and session.get("admission"):
            # Return the VO's engine slots; queued admissions are served
            # weighted-fair off this release.
            self.admission.release(*session["admission"])
            session["admission"] = None
        self.obs.events.emit(
            "session_closed",
            message=session_id,
            session=session_id,
        )
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
                if session_id not in self._sessions:
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
        if session is None:
            return None
        store = self._checkpoint_store(session_id)
        self._journal(session_id).sync()
        span = self.obs.tracer.start(
            "checkpoint.write",
            parent_id=session.get("trace_parent"),
            session=session_id,
        )
        state = session["state"]
        session_state = {"rewinds": state.rewinds, "running": state.running}
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
        if session is None:
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
            for session_id in list(self._sessions):
                self.write_checkpoint(session_id, torn=True)
        for session in self._sessions.values():
            for key in ("monitor_proc", "checkpoint_proc", "redispatch_proc"):
                proc = session[key]
                if proc is not None and proc.is_alive:
                    proc.interrupt("service-crash")
                session[key] = None
            self.container.revoke_token(session["state"].token)
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
        store = self.durability.store
        for session_id in SessionJournal.session_ids(store):
            journal = SessionJournal(
                store, session_id, fsync=self.durability.journal_fsync
            )
            state = fold(journal.records())
            if state is None:
                continue
            if state.closed:
                # Finished before the crash: only the tombstone matters
                # (keeps close() idempotent and zombie submissions
                # dropped); no journal reader stays behind.
                self._tombstones.add(session_id)
                self.aida.mark_dropped(session_id)
                continue
            self._journals[session_id] = journal
            reconciled_engines += yield from self._recover_session(
                session_id, state
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

    def _recover_session(self, session_id: str, state: SessionState):
        """Re-attach the volatile handles of one folded session (generator).

        Returns the number of engine trees reconciled (restored from the
        checkpoint or republished by a live engine) — the recovery cost
        model's unit of work.
        """
        span = self.obs.tracer.start("session.recover_state", session=session_id)
        ref = self.resources.create(
            {"owner": state.owner, "state": "recovering", "engines": state.n_engines},
            resource_id=session_id,
        )
        self.container.issue_token(state.token)
        # Re-bind engines that are still alive: the registry (and the
        # EngineHost processes out on the workers) survived the crash.
        live = {r.engine_id: r for r in self.registry.engines(session_id)}
        bound = [live[e] for e in sorted(state.engines) if e in live]
        engine_jobs = {}
        for reference in bound:
            job = self.gram.scheduler.running_job_on(reference.worker)
            if job is not None:
                engine_jobs[reference.engine_id] = job
        references = sorted(bound, key=lambda r: (r.registered_at, r.engine_id))
        indexes = [int(e.rsplit("-", 1)[1]) for e in [*state.engines, *state.banned]]
        vo = self.gram.authz.vo_of(state.owner) or state.owner
        self._sessions[session_id] = session = self._session_record(
            ref=ref,
            # The credential chain is security material, never journalled:
            # until reconnect() refreshes it, spare-engine GRAM submits fail
            # closed and re-dispatch falls back to surviving engines.
            chain=[],
            submission=_RecoveredSubmission(self.env, list(engine_jobs.values())),
            hosts={r.engine_id: r.host for r in bound if r.host is not None},
            references=references,
            engine_jobs=engine_jobs,
            # The crashed service never released the VO's engine slots: keep
            # the grant (do NOT re-acquire) so close() returns them.
            admission=(vo, state.n_engines) if self.admission is not None else None,
            next_engine_index=max([state.n_engines] + [i + 1 for i in indexes]),
            trace_parent=span.span_id,
            state=state,
        )
        for reference in references:
            if reference.host is not None and reference.host.engine.analysis is None:
                # A spare whose join the crash cut short has no code yet.
                try:
                    yield from self._ship_code(session_id, reference)
                except CodeLoaderError:
                    break  # nothing staged: stage_code will reach them all
        restored = self._restore_merge_state(session_id, state)
        self._arm_background_loops(session_id)
        # Engines the journal believed alive but that deregistered (died)
        # during the downtime: quarantine now; the monitor's sweeps
        # re-dispatch the orphaned parts.
        for engine_id in sorted(state.engines):
            if engine_id not in live:
                self._quarantine(session_id, engine_id)
        if session["state"].orphaned:
            self.aida.set_recovering(session_id, True)
        # Make sure the merge tree is planned even when no checkpoint
        # carried its topology (restore_state rebuilds it otherwise).
        self.aida.configure_tier(session_id, [r.engine_id for r in references])
        # Ask every live engine for a full keyframe: covers everything the
        # last checkpoint missed, including engines that finished during
        # the downtime (their final snapshot died with the old process).
        republish = sorted(references, key=lambda r: r.engine_id)
        for reference in republish:
            yield reference.mailbox.put(("republish",))
        if republish:
            self.obs.metrics.counter(
                "service_recovery_resyncs_total",
                "Live engines asked to republish a keyframe on recovery",
            ).inc(len(republish))
        self.resources.set_property(ref, "state", "ready")
        if state.dataset is not None:
            self.resources.set_property(ref, "dataset", state.dataset.dataset_id)
        self._maybe_end_recovery(session_id)
        span.finish(engines=len(references), restored=restored)
        return max(restored, len(republish))

    def _restore_merge_state(self, session_id: str, state: SessionState) -> int:
        """Hand a recovered session's durable state back to the planes that
        lost it: the AIDA merge cache and the replica pins.

        The merge cache comes from the last committed checkpoint unless it
        predates a journalled rewind (then it describes a dead run); the
        ban set is replayed on top (quarantines after the checkpoint).
        Returns the number of engine trees the checkpoint restored.
        """
        if state.rewinds:
            self.aida.begin_run(session_id, state.rewinds)
        restored = 0
        loaded = self._checkpoint_store(session_id).load()
        if loaded is not None:
            ckpt_session, merge_state = loaded
            if ckpt_session.get("rewinds", 0) >= state.rewinds:
                self.aida.restore_state(session_id, merge_state)
                restored = len(merge_state.get("engines", {}))
        for engine_id in sorted(state.banned):
            self.aida.discard_engine(session_id, engine_id)
        # The journal's engine count, not the checkpoint's: a quarantine
        # after the last checkpoint shrank it.
        self.aida.set_expected_engines(session_id, len(state.engines))
        # Re-pin this session's replica keys wherever the parts still sit.
        for key in state.pin_keys:
            for cache in self.replicas.caches.values():
                if key in cache:
                    cache.pin(key, session_id)
        return restored

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
        if session is None:
            if self._closed_in_journal(session_id):
                raise SessionError(f"session {session_id!r} is closed")
            raise SessionError(f"no active session {session_id!r}")
        state = session["state"]
        if state.owner != context.identity:
            raise SessionError(
                "reconnect identity does not match the session owner"
            )
        session["chain"] = list(credential_chain)
        return SessionInfo(
            session_id=session_id,
            resource=session["ref"],
            token=state.token,
            n_engines=len(session["references"]),
            engine_ids=sorted(
                ref.engine_id for ref in session["references"]
            ),
        )


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
    """The source of a ``transfer_file(read_disk=False, write_disk=False)``
    from a bare network host (the origin archive): only its name is read.
    """

    def __init__(self, name: str) -> None:
        self.name = name
