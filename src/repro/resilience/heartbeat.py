"""Heartbeat tracking and the timings of engine recovery.

Engines beat by calling ``WorkerRegistryService.heartbeat`` every
:data:`HEARTBEAT_INTERVAL_S` simulated seconds; the session service runs
one :class:`HeartbeatMonitor` sweep loop per session and declares an
engine dead when its last beat is older than :data:`HEARTBEAT_TIMEOUT_S`,
sweeping every :data:`HEARTBEAT_INTERVAL_S`.  Detection latency is
therefore bounded by ``HEARTBEAT_TIMEOUT_S + HEARTBEAT_INTERVAL_S``
measured from the engine's final beat.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim import Environment

#: Seconds between engine heartbeats.
HEARTBEAT_INTERVAL_S = 5.0
#: An engine whose last beat is older than this is declared dead.
HEARTBEAT_TIMEOUT_S = 20.0
#: How long recovery waits for a spare engine to register before falling
#: back to survivor takeover.
SPARE_TIMEOUT_S = 60.0
#: How long recovery waits for a takeover acknowledgement before leaving
#: the partition orphaned for the next sweep.
DISPATCH_ACK_TIMEOUT_S = 120.0
#: How long ``SessionService.close`` waits for engines to shut down
#: gracefully before force-cancelling their jobs.
CLOSE_GRACE_S = 120.0


class HeartbeatMonitor:
    """Per-session staleness detector over the registry's beat records."""

    def __init__(self, env: Environment, registry, session_id: str) -> None:
        self.env = env
        self.registry = registry
        self.session_id = session_id
        self._watched: Dict[str, bool] = {}

    def watch(self, engine_id: str) -> None:
        """Start watching an engine; seeds its beat clock at *now*."""
        self._watched[engine_id] = True
        self.registry.heartbeat(self.session_id, engine_id)

    def unwatch(self, engine_id: str) -> None:
        """Stop watching an engine (dead, shut down, or unrecoverable)."""
        self._watched.pop(engine_id, None)

    @property
    def watched(self) -> List[str]:
        """Engines currently under watch."""
        return list(self._watched)

    def last_beat(self, engine_id: str) -> Optional[float]:
        """Simulated time of the engine's most recent heartbeat."""
        return self.registry.last_heartbeat(self.session_id, engine_id)

    def stale(self) -> List[str]:
        """Watched engines whose last beat exceeds the timeout, sorted."""
        now = self.env.now
        out = []
        for engine_id in self._watched:
            last = self.last_beat(engine_id)
            if last is None or now - last > HEARTBEAT_TIMEOUT_S:
                out.append(engine_id)
        return sorted(out)
