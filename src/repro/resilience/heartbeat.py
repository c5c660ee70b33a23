"""Heartbeat tracking and recovery configuration.

Engines beat by calling ``WorkerRegistryService.heartbeat`` every
``heartbeat_interval`` simulated seconds; the session service runs one
:class:`HeartbeatMonitor` sweep loop per session and declares an engine
dead when its last beat is older than ``heartbeat_timeout``, sweeping
every ``heartbeat_interval``.  Detection latency is therefore bounded by
``heartbeat_timeout + heartbeat_interval`` measured from the engine's
final beat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim import Environment


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables of the heartbeat/recovery subsystem.

    Parameters
    ----------
    heartbeat_interval:
        Seconds between engine heartbeats.
    heartbeat_timeout:
        An engine whose last beat is older than this is declared dead.
    spare_timeout:
        How long recovery waits for a spare engine to register before
        falling back to survivor takeover.
    dispatch_ack_timeout:
        How long recovery waits for a takeover acknowledgement before
        leaving the partition orphaned for the next sweep.
    close_grace:
        How long ``SessionService.close`` waits for engines to shut down
        gracefully before force-cancelling their jobs.
    """

    heartbeat_interval: float = 5.0
    heartbeat_timeout: float = 20.0
    spare_timeout: float = 60.0
    dispatch_ack_timeout: float = 120.0
    close_grace: float = 120.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")


class HeartbeatMonitor:
    """Per-session staleness detector over the registry's beat records."""

    def __init__(
        self,
        env: Environment,
        registry,
        session_id: str,
        config: RecoveryConfig,
    ) -> None:
        self.env = env
        self.registry = registry
        self.session_id = session_id
        self.config = config
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
        timeout = self.config.heartbeat_timeout
        out = []
        for engine_id in self._watched:
            last = self.last_beat(engine_id)
            if last is None or now - last > timeout:
                out.append(engine_id)
        return sorted(out)
