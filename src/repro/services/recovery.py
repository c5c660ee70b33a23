"""Engine-failure recovery: the supervisor behind every session.

Failure model
-------------
Engines beat into the registry every ``HEARTBEAT_INTERVAL_S`` seconds.
The session's monitor loop treats a silent engine (crash, hang, or
severed link) as dead after ``HEARTBEAT_TIMEOUT_S``: the engine is *quarantined* —
its AIDA contributions discarded and future (zombie) submissions banned,
its job cancelled, its partitions marked orphaned — and the orphans are
re-staged from the storage element and re-dispatched, preferring a spare
worker and falling back to the least-loaded survivor.  The AIDA manager's
ban set plus the ``recovering`` gate keep the merged histograms exactly
equal to a failure-free run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.grid.gram import GramError, JobDescription
from repro.grid.scheduler import JobState
from repro.grid.security import SecurityError
from repro.grid.transfer import TransferError
from repro.resilience.heartbeat import (
    DISPATCH_ACK_TIMEOUT_S, HEARTBEAT_INTERVAL_S, SPARE_TIMEOUT_S, HeartbeatMonitor,
)
from repro.services.codeloader import CodeLoaderError
from repro.services.registry import EngineReference
from repro.sim import Interrupt, LinkDown, NodeCrash, NodeFailure, Process

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.services.session import SessionService


def _node_failed(job) -> bool:
    """Whether an engine job ended because its worker node failed."""
    return job is not None and job.state == JobState.FAILED and isinstance(job.error, NodeFailure)


class RecoverySupervisor:
    """Monitor sweeps, quarantine, re-dispatch and spare engines.

    The supervisor reaches a session only through the service's
    ``_commit`` and the session record in ``service._sessions`` (replaced
    when the service crashes and recovers), plus the service's
    engine-host factory.  Its collaborators are the service's own.
    """

    def __init__(self, service: "SessionService") -> None:
        self.service = service
        self.env = service.env
        self.gram = service.gram
        self.registry = service.registry
        self.aida = service.aida
        self.replicas = service.replicas
        self.ftp = service.ftp
        self.storage = service.storage
        self.codeloader = service.codeloader
        self.obs = service.obs

    def arm(self, session_id: str) -> Process:
        """Watch every engine of the session; start its monitor loop."""
        session = self.service._sessions[session_id]
        monitor = HeartbeatMonitor(self.env, self.registry, session_id)
        for reference in session["references"]:
            # watch() seeds a fresh beat: after a restart nobody gets
            # quarantined because their last beat predates the downtime.
            monitor.watch(reference.engine_id)
        session["monitor"] = monitor
        return self.env.process(self.monitor(session_id))

    def monitor(self, session_id: str):
        """Detect dead engines by missing heartbeats and recover (generator).

        One sweep per ``HEARTBEAT_INTERVAL_S``: first *every*
        stale engine is quarantined (so a multi-failure never re-dispatches
        onto a worker that is itself about to be declared dead), then
        orphaned partitions are re-dispatched.  Runs until the session
        closes; while closing it keeps cancelling hung engines so ``close``
        can finish, but stops re-dispatching work.

        A service crash interrupts the loop; the ``Interrupt`` is absorbed
        here (an unobserved process failure would crash the kernel).
        """
        session = self.service._sessions.get(session_id)
        if session is None:
            return
        monitor = session["monitor"]
        try:
            while True:
                if session["state"].closed:
                    return
                yield self.env.timeout(HEARTBEAT_INTERVAL_S)
                if session["state"].closed:
                    return
                jobs = session["engine_jobs"]
                # A job that already reported its node's failure need not
                # wait out the heartbeat timeout.
                suspects = set(monitor.stale())
                suspects.update(e for e in monitor.watched if _node_failed(jobs.get(e)))
                for engine_id in sorted(suspects):
                    job = jobs.get(engine_id)
                    if job is not None and job.state in JobState.TERMINAL and not _node_failed(job):
                        # Shutdown or cancel, or the user's analysis
                        # crashed (surfaced through status()): nothing to recover.
                        monitor.unwatch(engine_id)
                    else:
                        self.quarantine(session_id, engine_id)
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
                self.maybe_end_recovery(session_id)
        except Interrupt:
            return

    def quarantine(self, session_id: str, engine_id: str) -> None:
        """Declare an engine dead: ban its results, orphan its partitions."""
        session = self.service._sessions[session_id]
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
        metrics.counter("session_quarantines_total", "Engines declared dead and quarantined").inc()
        self.obs.events.emit(
            "fault_detected",
            message=f"{engine_id} silent ({type(cause).__name__})",
            severity="error",
            session=session_id,
            engine=engine_id,
            cause=type(cause).__name__,
            silence_s=self.env.now - last_beat if last_beat is not None else None,
        )
        recovery_span = self.obs.tracer.start(
            "session.recover", parent_id=session.get("trace_parent"), engine=engine_id,
            cause=type(cause).__name__,
        )
        # Gate `complete` first, then drop the dead engine's epoch from the
        # merge — zombie submissions are banned from here on.  The merge
        # this starts hangs under the recovery span.
        with self.obs.tracer.activate(recovery_span):
            self.aida.set_recovering(session_id, True)
            self.aida.discard_engine(session_id, engine_id)
        self.registry.deregister(session_id, engine_id)
        dead_ref = next((r for r in session["references"] if r.engine_id == engine_id), None)
        if dead_ref is not None:
            # A dead worker's cache contents are gone with it: drop its
            # replica records so no later stage plans a peer fetch from it.
            self.replicas.invalidate_host(dead_ref.worker)
        session["references"] = [ref for ref in session["references"] if ref.engine_id != engine_id]
        self.aida.set_expected_engines(session_id, len(session["references"]))
        session["hosts"].pop(engine_id, None)
        orphaned = session["state"].assignments.get(engine_id, ())
        session["recoveries"].append({
            "engine_id": engine_id, "cause": cause, "detected_at": self.env.now,
            "parts": len(orphaned), "span": recovery_span,
        })
        self.service._commit(session, "quarantine", engine_id=engine_id)
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

    def quarantine_departed(self, session_id: str, engine_ids) -> None:
        """Quarantine engines that died while the service was down; the
        monitor's sweeps re-dispatch their parts, and the merge stays
        open while any part is orphaned."""
        for engine_id in engine_ids:
            self.quarantine(session_id, engine_id)
        if self.service._sessions[session_id]["state"].orphaned:
            self.aida.set_recovering(session_id, True)

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
        session = self.service._sessions.get(session_id)
        if session is None:
            return
        try:
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
                        self.storage, worker, f"{dataset.dataset_id}.part{part.part_index}.redispatch",
                        part.size_mb, read_disk=True, write_disk=True,
                    )
                except (TransferError, LinkDown):
                    # Could not reach the target; leave the part orphaned
                    # for the next sweep (the target will be quarantined if
                    # it is the one that died).
                    return
                # Record the assignment *before* waiting for the ack: if the
                # target dies mid-takeover its quarantine re-orphans the part.
                self.service._commit(
                    session, "dispatch", engine_id=target.engine_id, part_index=part.part_index
                )
                key = self.replicas.part_keys(
                    dataset.dataset_id, dataset.strategy, dataset.parts
                )[part.part_index]
                self.replicas.record_worker_part(
                    dataset.dataset_id, key, target.worker, part.size_mb,
                    session_id,
                )
                session["redispatches"].append(
                    {"part": part.part_index, "to": target.engine_id, "at": self.env.now}
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
                    ("takeover", part, dataset.content, ack, session["state"].running)
                )
                timeout = self.env.timeout(DISPATCH_ACK_TIMEOUT_S)
                yield self.env.any_of([ack, timeout])
                if not ack.triggered:
                    # Target went silent mid-takeover; the monitor's next
                    # sweep will quarantine it and re-orphan the part.
                    return
            self.maybe_end_recovery(session_id)
        except Interrupt:
            return

    def maybe_end_recovery(self, session_id: str) -> None:
        """Clear the AIDA ``recovering`` gate once recovery truly ended.

        "Ended" means no orphaned parts remain *and* every dispatched
        takeover was acknowledged (the target published a non-final
        snapshot), so ``MergeProgress.complete`` cannot flip true while a
        re-staged partition is still unaccounted for.
        """
        session = self.service._sessions.get(session_id)
        if session is None:
            return
        session["pending_acks"] = [ack for ack in session["pending_acks"] if not ack.triggered]
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
        came up within ``SPARE_TIMEOUT_S`` (the caller then
        falls back to a surviving engine).
        """
        session = self.service._sessions[session_id]
        index = session["next_engine_index"]
        session["next_engine_index"] = index + 1
        host = self.service._engine_host(session_id, index)
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
        session["engine_jobs"][engine_id] = submission.jobs[0]
        deadline = self.env.now + SPARE_TIMEOUT_S
        while True:
            refs = {ref.engine_id: ref for ref in self.registry.engines(session_id)}
            if engine_id in refs:
                reference = refs[engine_id]
                break
            if self.env.now >= deadline:
                self.gram.cancel(submission, "spare-timeout")
                return None
            arrival = self.registry.wait_for(session_id, self.registry.count(session_id) + 1)
            timeout = self.env.timeout(deadline - self.env.now)
            yield self.env.any_of([arrival, timeout])
        session["hosts"][engine_id] = host
        # The newcomer joins the session's current run: its snapshots must
        # not read as leftovers from before the last rewind.
        for _ in range(session["state"].rewinds):
            host.engine.rewind()
        session["references"].append(reference)
        self.aida.set_expected_engines(session_id, len(session["references"]))
        self.service._commit(
            session, "engine_joined", engine_id=engine_id, worker=reference.worker
        )
        session["monitor"].watch(engine_id)
        try:
            yield from self._ship_code(session_id, reference)
        except CodeLoaderError as exc:
            # Nothing staged (yet): the spare joins bare and gets the code
            # with everyone else on the next stage_code.
            self._spare_start_failed(session_id, engine_id, exc)
        return reference

    def reship_code(self, session_id: str, references):
        """Ship the current code to each engine of *references* that has
        none: a spare whose join a service crash cut short (generator)."""
        for reference in references:
            if reference.host is not None and reference.host.engine.analysis is None:
                try:
                    yield from self._ship_code(session_id, reference)
                except CodeLoaderError:
                    return  # nothing staged: stage_code will reach them all

    def _ship_code(self, session_id: str, reference: EngineReference):
        """Stage the session's current analysis code to one engine
        (generator).  Raises :class:`CodeLoaderError` when none is staged.
        """
        bundle = self.codeloader.current(session_id)
        worker = self.gram.scheduler.element.worker(reference.worker)
        yield self.codeloader.stage(session_id, bundle, [worker])
        yield reference.mailbox.put(("load_code", bundle))

    def _spare_start_failed(self, session_id: str, engine_id: str, exc: Exception) -> None:
        self.obs.events.emit(
            "spare_start_failed",
            message=f"{engine_id}: {exc}",
            severity="warning",
            session=session_id,
            engine=engine_id,
            error=repr(exc),
        )
