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
        #: engine_id -> timeout scale factor in (0, 1]; fed by straggler
        #: detection so a flagged engine is declared dead sooner.
        self._suspicion: Dict[str, float] = {}

    def watch(self, engine_id: str) -> None:
        """Start watching an engine; seeds its beat clock at *now*."""
        self._watched[engine_id] = True
        self.registry.heartbeat(self.session_id, engine_id)

    def unwatch(self, engine_id: str) -> None:
        """Stop watching an engine (dead, shut down, or unrecoverable)."""
        self._watched.pop(engine_id, None)
        self._suspicion.pop(engine_id, None)

    def suspect(self, engine_id: str, factor: float = 0.5) -> None:
        """Shorten an engine's effective heartbeat timeout by *factor*.

        A straggler-detection hint: a flagged engine that then goes
        silent is quarantined after ``timeout * factor`` instead of the
        full timeout.  The factor is floored so the effective timeout
        always exceeds one heartbeat interval — a merely-slow engine
        that still beats on schedule can never be declared dead by
        suspicion alone.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        floor = self.config.heartbeat_interval / self.config.heartbeat_timeout
        self._suspicion[engine_id] = max(factor, min(1.0, floor * 1.5))

    def clear_suspicion(self, engine_id: str) -> None:
        """Drop the suspicion hint for an engine (idempotent)."""
        self._suspicion.pop(engine_id, None)

    def timeout_for(self, engine_id: str) -> float:
        """Effective staleness timeout for one engine (hints applied)."""
        return self.config.heartbeat_timeout * self._suspicion.get(
            engine_id, 1.0
        )

    @property
    def watched(self) -> List[str]:
        """Engines currently under watch."""
        return list(self._watched)

    def last_beat(self, engine_id: str) -> Optional[float]:
        """Simulated time of the engine's most recent heartbeat."""
        return self.registry.last_heartbeat(self.session_id, engine_id)

    def stale(self) -> List[str]:
        """Watched engines whose last beat exceeds their timeout, sorted.

        Each engine's timeout is the configured one scaled by any
        suspicion hint (see :meth:`suspect`).
        """
        now = self.env.now
        out = []
        for engine_id in self._watched:
            last = self.last_beat(engine_id)
            if last is None or now - last > self.timeout_for(engine_id):
                out.append(engine_id)
        return sorted(out)
