"""The IPA Session Manager Service.

"At the heart of the system design is the Interactive Parallel Dataset
Analysis Session Manager Service ... A dataset can only be analyzed in the
context of this session" (§3.2).  The session service:

1. creates a WSRF session resource per authorized client,
2. starts the pre-configured number of analysis engines through GRAM on
   the dedicated interactive queue and waits for their ready signals
   (each engine is an :class:`~repro.services.engine_host.EngineHost`),
3. stages datasets (locator → optional whole-file fetch → splitter →
   scatter → per-engine load directives; :mod:`repro.services.stager`),
4. stages/reloads analysis code through the managing class loader,
5. fans out run/pause/stop/rewind/step controls,
6. monitors engine heartbeats and recovers from worker failures by
   re-staging orphaned partitions to a spare or surviving engine
   (:mod:`repro.services.recovery`),
7. shuts everything down at session close ("the analysis engines ... should
   be started for each session and be shutdown at the end of a session",
   §2.3).

Service faults
--------------
The service also survives *its own* crash.  A session's durable state is
one frozen :class:`~repro.services.session_state.SessionState`, and
:func:`~repro.services.session_state.apply` is the only place a
transition of it is defined: the live service commits every transition
as a journal record (write-ahead, to the manager node's durable store)
and then applies that record to its state.  The merge state is
checkpointed periodically beside it.  ``crash()`` models the service
process dying (volatile state lost, tokens revoked, endpoints raising
:class:`~repro.resilience.faults.ServiceUnavailable`, and so does every
commit of an operation that was in flight across it); ``recover()`` is
the cold start that folds each journal back into the same
state, re-attaches the volatile handles, restores the merge cache from
the last committed checkpoint, re-binds still-running engines through the
(surviving) registry, quarantines engines that died during the downtime,
and asks every live engine to republish a full keyframe — so the final
merged trees are bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import secrets
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.core.config import Calibration
    from repro.replica.manager import ReplicaManager

from repro.engine.controls import Command
from repro.engine.sandbox import CodeBundle
from repro.grid.admission import AdmissionController
from repro.grid.gram import GramGatekeeper, JobDescription
from repro.grid.nodes import StorageElement
from repro.grid.scheduler import JobState
from repro.grid.security import Certificate, SecurityContext
from repro.grid.transfer import GridFTPService
from repro.obs import NULL_OBS, Observability
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import ServiceUnavailable
from repro.resilience.heartbeat import CLOSE_GRACE_S
from repro.resilience.journal import DurableStore, SessionJournal
from repro.services.aida_manager import AIDAManagerService
from repro.services.catalog import DatasetCatalogService
from repro.services.codeloader import ManagingClassLoaderService
from repro.services.content import ContentStore
from repro.services.engine_host import EngineHost
from repro.services.envelope import ServiceContainer
from repro.services.locator import LocatorService
from repro.services.recovery import RecoverySupervisor
from repro.services.registry import WorkerRegistryService
from repro.services.session_state import (
    SessionError, SessionInfo, SessionState, apply, fold,
)
from repro.services.splitter import SplitterService
from repro.services.stager import Stager
from repro.services.wsrf import ResourceHome, ResourceRef
from repro.sim import Environment, Interrupt, NodeFailure


class SessionService:
    """Server-side coordinator of interactive analysis sessions.

    Engine-failure recovery is the :attr:`supervisor`'s; staging is the
    :attr:`stager`'s, *replicas* first.  Every transition is journalled
    to *durable_store*, and each live session's merge state is
    checkpointed there every *checkpoint_every_s* simulated seconds.
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
        durable_store: DurableStore,
        checkpoint_every_s: float,
        container: ServiceContainer,
        replicas: "ReplicaManager",
        obs: Optional[Observability] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.env = env
        self.obs = obs or NULL_OBS
        #: Replica catalog + staging caches.
        self.replicas = replicas
        self.gram = gram
        self.registry = registry
        self.codeloader = codeloader
        self.aida = aida
        self.ftp = ftp
        self.storage = storage
        self.content_store = content_store
        self.calibration = calibration
        #: The manager node's disk: session journals and checkpoints.
        self.durable_store = durable_store
        self.checkpoint_every_s = checkpoint_every_s
        #: Service container, for token revocation on crash / reissue on
        #: recovery.
        self.container = container
        #: Per-VO fair-share admission control over engine slots
        #: (``None`` = admit everything, the original behaviour).
        self.admission = admission
        self.resources = ResourceHome("session")
        self._sessions: Dict[str, dict] = {}
        self._down = False
        #: Times this service crashed: the incarnation that fences
        #: ``_commit``.  Like ``AIDAManagerService._boots``, the one word a
        #: restarting service reads from disk, so it survives ``crash()``.
        self._boots = 0
        self._journals: Dict[str, SessionJournal] = {}
        self._checkpoints: Dict[str, CheckpointStore] = {}
        #: Sessions whose journal said "closed" at the last recovery:
        #: closing one of these again is the idempotent no-op (the close
        #: already ran to completion before the crash).
        self._tombstones: set = set()
        self.stager = Stager(
            env, catalog, locator, splitter, replicas, ftp, storage,
            gram.scheduler.element, aida, calibration, self.obs, self._commit,
        )
        self.supervisor = RecoverySupervisor(self)

    @property
    def active_sessions(self) -> int:
        """Open (not yet closed) sessions — the broker's queue-depth signal."""
        return len(self._sessions)

    # -- durability helpers -------------------------------------------------
    def _journal(self, session_id: str) -> SessionJournal:
        journal = self._journals.get(session_id)
        if journal is None:
            journal = SessionJournal(self.durable_store, session_id)
            self._journals[session_id] = journal
        return journal

    def _commit(self, session: dict, record_type: str, /, **data) -> SessionState:
        """Make one durable transition of the session *session* records:
        journal the record write-ahead (no simulated time), then ``apply``
        it to the record's state.  Returns the new state.

        Fenced by the service incarnation: an operation that began before
        a crash holds the dead incarnation's record, and its transition is
        refused with ``ServiceUnavailable`` before it reaches the journal
        (the recovered service owns the session now).  A late record of
        the live incarnation (after the session closed) still reaches the
        journal, and recovery folds it.
        """
        if session["boot"] != self._boots:
            raise ServiceUnavailable("session service restarted during the operation")
        record = self._journal(session["id"]).append(record_type, **data)
        session["state"] = apply(session["state"], record)
        return session["state"]

    def _checkpoint_store(self, session_id: str) -> CheckpointStore:
        store = self._checkpoints.get(session_id)
        if store is None:
            store = CheckpointStore(self.durable_store, session_id)
            self._checkpoints[session_id] = store
        return store

    def _closed_in_journal(self, session_id: str) -> bool:
        """Whether the durable journal tombstones this session as closed
        (read through an uncached reader: a closed session keeps none)."""
        state = fold(SessionJournal(self.durable_store, session_id).records())
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

        boot = self._boots
        admitted: Optional[Tuple[str, int]] = None
        if self.admission is not None:
            # Per-VO fair-share gate: waits within the VO's quota, or
            # raises RetryAfter (backpressure) when the queue is full.
            vo = self.gram.authz.vo_of(context.identity) or context.identity
            yield from self.admission.acquire(vo, count)
            admitted = (vo, count)
        try:
            info = yield from self._start_session(
                context, credential_chain, count, dataset_hint, admitted, boot
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
        boot: int,
    ):
        """Start engines and build the session record (post-admission)."""
        ref = self.resources.create()
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
        session = self._session_record(
            id=session_id,
            boot=boot,
            ref=ref,
            chain=list(credential_chain),
            hosts=hosts,
            references=list(references),
            engine_jobs=dict(zip(hosts, submission.jobs)),
            # (vo, slots) held at the admission controller, if any.
            admission=admitted,
            next_engine_index=count,
            # Trace context of the creating call: recovery work started by
            # the background monitor parents here instead of floating free.
            trace_parent=self.obs.tracer.current_id,
            state=None,
        )
        try:
            self._commit(
                session,
                "create",
                session_id=session_id,
                owner=context.identity,
                token=secrets.token_hex(16),
                n_engines=count,
                engines={ref_.engine_id: ref_.worker for ref_ in references},
            )
        except ServiceUnavailable:
            # Began before a crash: no journal names these engines, so no
            # recovery will ever close them.
            self.gram.cancel(submission, "service-restart")
            raise
        self._sessions[session_id] = session
        self.aida.set_expected_engines(session_id, count)
        # Plan the session's merge tree now that its engines are known.
        self.aida.configure_tier(
            session_id, [reference.engine_id for reference in references]
        )
        self._arm_background_loops(session_id)
        self.obs.events.emit(
            "session_created",
            message=f"{session_id} with {count} engines",
            session=session_id,
            owner=context.identity,
            engines=count,
        )
        return self._info(session_id)

    def _engine_host(self, session_id: str, index: int) -> EngineHost:
        """The job body GRAM lands on a worker for engine *index*."""
        return EngineHost(
            engine_id=f"{session_id}-engine-{index}",
            session_id=session_id,
            registry=self.registry,
            aida=self.aida,
            content_store=self.content_store,
            calibration=self.calibration,
            obs=self.obs,
        )

    @staticmethod
    def _session_record(**fields) -> dict:
        """The record of one session: its durable ``"state"`` (a
        :class:`SessionState` only ``_commit`` replaces) beside the
        volatile handles.  Both builders (start and recovery) supply
        ``id, boot, ref, chain, hosts, references, engine_jobs, admission,
        next_engine_index, trace_parent, state``; ``boot`` is the service
        incarnation the record belongs to, and ``engine_jobs`` is the one
        table of the session's engine jobs (start, spares, re-bound).
        """
        session = {
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
        session["monitor_proc"] = self.supervisor.arm(session_id)
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
        """Stage a dataset onto the session's workers (generator operation;
        :mod:`repro.services.stager`).  Returns the
        :class:`~repro.services.session_state.StagedDataset` bookkeeping.
        """
        session = self._session(session_id)
        return (yield from self.stager.stage(session_id, session, dataset_id, strategy, streams))

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
        self._commit(session, "code", class_name=bundle.class_name, version=bundle.version)
        # The engines live now: a spare that joined while the code was in
        # flight found no current bundle to load.
        for ref in session["references"]:
            yield ref.mailbox.put(("load_code", bundle))
        code_span.finish()
        return self.env.now - started

    def reload_code(
        self,
        session_id: str,
        source: Optional[str] = None,
        parameters: Optional[dict] = None,
    ):
        """Hot-reload: stage an updated bundle (generator operation)."""
        self._session(session_id)
        current = self.codeloader.current(session_id)
        updated = current.updated(source=source, parameters=parameters)
        duration = yield self.env.process(self.stage_code(session_id, updated))
        return duration

    # -- control ------------------------------------------------------------
    def control(self, session_id: str, verb: str, argument=None):
        """Fan a control verb out to every engine (generator operation)."""
        session = self._session(session_id)
        # Write-ahead: the verb is durable before any engine acts on it.
        state = self._commit(session, "control", verb=verb)
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
        all_jobs = list(session["engine_jobs"].values())
        failures, node_failures = [], []
        for job in all_jobs:
            if job.state == JobState.FAILED:
                failed = {"job": job.name, "error": str(job.error)}
                node = isinstance(job.error, NodeFailure)
                (node_failures if node else failures).append(failed)
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

    # -- shutdown ------------------------------------------------------------
    def close(self, session_id: str):
        """End the session: shut engines down, cancel jobs, release the
        admission grant (generator operation).  Idempotent, and safe when
        engines are dead or hung — stragglers are force-cancelled after
        the recovery grace period instead of deadlocking the close.

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
        self._commit(session, "closing")
        for ref in list(session["references"]):
            yield ref.mailbox.put(("shutdown",))
        # Engines drain their mailboxes and exit; wait for the jobs to end,
        # then cancel any stragglers.
        jobs = list(session["engine_jobs"].values())
        all_done = self.env.all_of([job.done for job in jobs])
        grace = self.env.timeout(CLOSE_GRACE_S)
        yield self.env.any_of([all_done, grace])
        if not all_done.triggered:
            # A hung engine never read its shutdown directive and the
            # monitor has not (yet) cancelled it: force the issue.
            for job in jobs:
                if job.state not in JobState.TERMINAL:
                    self.gram.scheduler.cancel(job.id, "session-end")
            yield all_done
        # Tombstone first (write-ahead), then tear down and drop the
        # checkpoint file: after a crash the journal alone must prove the
        # close happened, and a close that began before a crash tears down
        # nothing of the recovered session.
        self._commit(session, "closed")
        self.registry.drop_session(session_id)
        self.codeloader.drop_session(session_id)
        self.aida.drop_session(session_id)
        # The session's cached parts stay behind (warm for the next
        # session) but are no longer pinned against eviction.
        self.replicas.unpin_session(session_id)
        # A closed session holds nothing: the record (hosts, jobs,
        # references, credential chain) and its journal
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
        timeout events — so durability does not perturb any calibrated
        timing.  A service crash interrupts the loop.
        """
        try:
            while True:
                yield self.env.timeout(self.checkpoint_every_s)
                if session_id not in self._sessions:
                    return
                self.write_checkpoint(session_id)
        except Interrupt:
            return

    def write_checkpoint(self, session_id: str, torn: bool = False):
        """Write one durable checkpoint now; returns its kind.

        Every journal record is durable before it is applied, so a
        checkpoint can never describe state the journal cannot explain.
        ``torn`` models a crash mid-flush (only half the record reaches
        the disk).
        """
        session = self._sessions.get(session_id)
        if session is None:
            return None
        store = self._checkpoint_store(session_id)
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
        Service recovery sends it to every live engine.  Returns the
        number of directives sent.
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

        Volatile session state is wiped (the durable store survives),
        every live session's RMI token is revoked, the background
        monitor/checkpoint/re-dispatch loops are interrupted, and the
        AIDA manager goes down too.  With
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
        self.resources = ResourceHome("session")
        self._boots += 1
        self._down = True
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
        store = self.durable_store
        for session_id in SessionJournal.session_ids(store):
            journal = SessionJournal(store, session_id)
            state = fold(journal.records())
            if state is None:
                continue
            # Every journalled id stays taken, a closed session's too: a
            # new session must not append to an old journal.
            ref = self.resources.create(resource_id=session_id)
            if state.closed:
                # Finished before the crash: only the tombstone matters
                # (keeps close() idempotent and zombie submissions
                # dropped); no journal reader stays behind.
                self._tombstones.add(session_id)
                self.aida.mark_dropped(session_id)
                continue
            self._journals[session_id] = journal
            reconciled_engines += yield from self._recover_session(
                session_id, state, ref
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

    def _recover_session(self, session_id: str, state: SessionState, ref: ResourceRef):
        """Re-attach the volatile handles of one folded session (generator);
        returns the engine trees reconciled (restored from the checkpoint or
        republished by a live engine), the recovery cost model's unit."""
        span = self.obs.tracer.start("session.recover_state", session=session_id)
        self.container.issue_token(state.token)
        # Re-bind engines that are still alive: the registry (and the
        # EngineHost processes out on the workers) survived the crash.
        live = {r.engine_id: r for r in self.registry.engines(session_id)}
        bound = [live[e] for e in sorted(state.engines) if e in live]
        jobs = {r.engine_id: self.gram.scheduler.running_job_on(r.worker) for r in bound}
        references = sorted(bound, key=lambda r: (r.registered_at, r.engine_id))
        indexes = [int(e.rsplit("-", 1)[1]) for e in [*state.engines, *state.banned]]
        vo = self.gram.authz.vo_of(state.owner) or state.owner
        self._sessions[session_id] = self._session_record(
            id=session_id,
            boot=self._boots,
            ref=ref,
            # The credential chain is security material, never journalled:
            # until reconnect() refreshes it, spare-engine GRAM submits fail
            # closed and re-dispatch falls back to surviving engines.
            chain=[],
            hosts={r.engine_id: r.host for r in bound if r.host is not None},
            references=references,
            engine_jobs={e: job for e, job in jobs.items() if job is not None},
            # The crashed service never released the VO's engine slots: keep
            # the grant (do NOT re-acquire) so close() returns them.
            admission=(vo, state.n_engines) if self.admission is not None else None,
            next_engine_index=max([state.n_engines] + [i + 1 for i in indexes]),
            trace_parent=span.span_id,
            state=state,
        )
        yield from self.supervisor.reship_code(session_id, references)
        with self.obs.tracer.activate(span):
            restored = self._restore_merge_state(session_id, state)
        self._arm_background_loops(session_id)
        # Engines the journal believed alive died during the downtime.
        self.supervisor.quarantine_departed(session_id, sorted(set(state.engines) - set(live)))
        # Make sure the merge tree is planned even when no checkpoint
        # carried its topology (restore_state rebuilds it otherwise).
        self.aida.configure_tier(session_id, [r.engine_id for r in references])
        # Ask every live engine for a full keyframe: covers everything the
        # last checkpoint missed, including engines that finished during
        # the downtime (their final snapshot died with the old process).
        sent = yield from self.resync_engines(session_id, live)
        if sent:
            self.obs.metrics.counter(
                "service_recovery_resyncs_total",
                "Live engines asked to republish a keyframe on recovery",
            ).inc(sent)
        self.supervisor.maybe_end_recovery(session_id)
        span.finish(engines=len(references), restored=restored)
        return max(restored, sent)

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
        return self._info(session_id)

    def _info(self, session_id: str) -> SessionInfo:
        session = self._sessions[session_id]
        return SessionInfo(
            session_id=session_id,
            resource=session["ref"],
            token=session["state"].token,
            n_engines=len(session["references"]),
            engine_ids=sorted(ref.engine_id for ref in session["references"]),
        )
