"""The engine host: the job body GRAM lands on each worker of a session.

:class:`EngineHost` registers with the worker registry, then serves
directives from its mailbox, charging simulated time for staging and
compute while doing the *real* event processing through
:class:`~repro.engine.engine.AnalysisEngine`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional

from repro.aida.codec import payload_nbytes
from repro.engine.controls import Command
from repro.engine.engine import AnalysisEngine, Snapshot
from repro.grid.nodes import WorkerNode
from repro.obs import NULL_OBS, Observability
from repro.resilience.heartbeat import HEARTBEAT_INTERVAL_S
from repro.services.aida_manager import AIDAManagerService
from repro.services.content import ContentStore
from repro.services.registry import EngineReference, WorkerRegistryService
from repro.services.session_state import SessionError
from repro.services.splitter import PartDescriptor
from repro.sim import Environment, Interrupt, NodeHang, Store

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.core.config import Calibration


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
    ``HEARTBEAT_INTERVAL_S``; the beat stops when the node hangs or its
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
        obs: Optional[Observability] = None,
    ) -> None:
        self.engine_id = engine_id
        self.session_id = session_id
        self.registry = registry
        self.aida = aida
        self.content_store = content_store
        self.calibration = calibration
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
            # However the job ends (shutdown, crash or cancel), the
            # parts staged to it go with it; the engine keeps its counts.
            self._owned = []
            self._pending = []
            self.engine.release_data()
        return self.engine.cursor

    def _heartbeat(self, env: Environment, worker: WorkerNode):
        """Beat into the registry until interrupted (engine exit/crash)."""
        try:
            while True:
                yield env.timeout(HEARTBEAT_INTERVAL_S)
                if not worker.link_down:
                    self.registry.heartbeat(self.session_id, self.engine_id)
        except Interrupt:
            return

    def _stop_heartbeat(self) -> None:
        if self._hb is not None and self._hb.is_alive:
            self._hb.interrupt("engine-exit")
        self._hb = None

    def _handle(self, env: Environment, worker: WorkerNode, directive: tuple, nested=False):
        """Serve one directive; False ends the job.  A *nested* directive
        arrived mid-run: it starts no run loop of its own."""
        kind = directive[0]
        cal = self.calibration
        if kind == "shutdown":
            return False
        if kind == "load_data":
            _, part, content = directive
            self._part = part
            # Local read of the staged part off the worker disk.
            yield worker.disk_read(part.size_mb)
            batch = self.content_store.events_for(content, part.start_event, part.stop_event)
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
                if not nested:
                    alive = yield from self._process_loop(env, worker)
                    return alive
            return True
        if kind == "control":
            _, verb, arg = directive
            self._apply_control(verb, arg)
            if verb in (Command.RUN, Command.STEP) and not nested:
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
        batch = self.content_store.events_for(content, part.start_event, part.stop_event)
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
                keep_going = yield from self._handle(env, worker, directive, nested=True)
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
                yield env.timeout(chunk_mb * cal.grid_analysis_rate_s_per_mb * worker.slow_factor)
            if result.events > 0 and self._observed:
                self._events_metric.inc(result.events, engine=self.engine_id)
                self._chunk_metric.observe(env.now - chunk_started, engine=self.engine_id)
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
