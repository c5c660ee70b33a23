"""Worker Registry Server: analysis engines announce themselves here.

Fig. 2: after GRAM starts an engine job on a worker, the engine sends a
"ready signal with reference" to the registry; the session service waits on
the registry until the expected number of engines is up, then hands out the
references for data/code staging and control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs import NULL_OBS, Observability
from repro.sim import Environment, Event


class RegistryError(Exception):
    """Raised on duplicate or unknown engine registrations."""


@dataclass
class EngineReference:
    """What an engine publishes: identity, placement, and its mailbox.

    The ``mailbox`` is the engine host's command queue (a simulation
    ``Store``); services push staging/control directives into it — the
    stand-in for the remote references of the Java implementation.
    """

    engine_id: str
    session_id: str
    worker: str
    mailbox: Any
    registered_at: float = 0.0
    #: Back-reference to the EngineHost serving this engine.  The registry
    #: survives a session-service crash, so recovery uses it to re-bind
    #: the rebuilt session to the still-running hosts.
    host: Any = None


class WorkerRegistryService:
    """Tracks live engines per session and wakes waiters on arrival."""

    def __init__(
        self, env: Environment, obs: Optional[Observability] = None
    ) -> None:
        self.env = env
        self.obs = obs or NULL_OBS
        #: Per-beat gap metric: one branch, decided here.
        self._observed = self.obs.enabled
        self._engines: Dict[str, Dict[str, EngineReference]] = {}
        self._waiters: Dict[str, List[tuple]] = {}
        #: (session_id, engine_id) -> simulated time of the last heartbeat.
        #: Survives deregistration so a monitor can still inspect the final
        #: beat of a dead engine.
        self._heartbeats: Dict[tuple, float] = {}
        self._gap_metric = self.obs.metrics.histogram(
            "heartbeat_gap_seconds",
            "Gap between consecutive beats of one engine (simulated seconds)",
        )

    # -- engine side ---------------------------------------------------------
    def register(self, reference: EngineReference) -> None:
        """Record a ready engine; duplicate ids within a session rejected."""
        session = self._engines.setdefault(reference.session_id, {})
        if reference.engine_id in session:
            raise RegistryError(
                f"engine {reference.engine_id!r} already registered"
            )
        reference.registered_at = self.env.now
        session[reference.engine_id] = reference
        self._notify(reference.session_id)

    def deregister(self, session_id: str, engine_id: str) -> None:
        """Remove an engine (engine shutdown); idempotent."""
        self._engines.get(session_id, {}).pop(engine_id, None)

    def heartbeat(self, session_id: str, engine_id: str) -> None:
        """Record a liveness beat from an engine at the current time."""
        key = (session_id, engine_id)
        now = self.env.now
        previous = self._heartbeats.get(key)
        if previous is not None and self._observed:
            self._gap_metric.observe(now - previous)
        self._heartbeats[key] = now

    def last_heartbeat(self, session_id: str, engine_id: str) -> Optional[float]:
        """Simulated time of the engine's last beat, or ``None``."""
        return self._heartbeats.get((session_id, engine_id))

    def drop_session(self, session_id: str) -> None:
        """Forget every engine of a session (session close); idempotent."""
        self._engines.pop(session_id, None)
        self._waiters.pop(session_id, None)
        for key in [k for k in self._heartbeats if k[0] == session_id]:
            del self._heartbeats[key]

    # -- session side ---------------------------------------------------------
    def engines(self, session_id: str) -> List[EngineReference]:
        """References of currently registered engines, in arrival order."""
        return sorted(
            self._engines.get(session_id, {}).values(),
            key=lambda ref: (ref.registered_at, ref.engine_id),
        )

    def count(self, session_id: str) -> int:
        """Number of ready engines for the session."""
        return len(self._engines.get(session_id, {}))

    def sessions(self) -> List[str]:
        """Session ids that currently have at least one registered engine.

        Concurrency diagnostics: how many sessions the site is actually
        serving engines for right now (sorted for determinism).
        """
        return sorted(s for s, engines in self._engines.items() if engines)

    def wait_for(self, session_id: str, count: int) -> Event:
        """Event that fires once *count* engines are registered.

        Fires immediately (already-triggered event) if the count is already
        met.
        """
        if count < 0:
            raise RegistryError("count must be >= 0")
        event = self.env.event()
        if self.count(session_id) >= count:
            event.succeed(self.engines(session_id))
            return event
        self._waiters.setdefault(session_id, []).append((count, event))
        return event

    def _notify(self, session_id: str) -> None:
        current = self.count(session_id)
        waiters = self._waiters.get(session_id, [])
        remaining = []
        for count, event in waiters:
            if current >= count and not event.triggered:
                event.succeed(self.engines(session_id))
            elif not event.triggered:
                remaining.append((count, event))
        if remaining:
            self._waiters[session_id] = remaining
        else:
            self._waiters.pop(session_id, None)
