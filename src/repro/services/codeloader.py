"""Managing Class Loader: stage analysis code to engines, with hot reload.

"Once the analysis engines are ready ... we need a way to ship the
analysis code that does this analysis from the client machine to the Grid
machines" (§2.4); and "after every iteration of the analysis, changes can
be made in the analysis code and the new analysis code can be dynamically
reloaded" (§3.6).

Staging cost = fixed service overhead + the broadcast of the (tiny) source
bundle over the LAN; for the paper's 15 kB of bytecode this lands at ~7 s
(Table 1), dominated by the overhead, which is exactly why dynamic reload
beats re-staging data (benchmarked in ``bench_reload.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.engine.sandbox import CodeBundle
from repro.grid.nodes import ManagerNode, Node
from repro.grid.transfer import GridFTPService
from repro.obs import NULL_OBS, Observability
from repro.sim import Environment, Process


class CodeLoaderError(Exception):
    """Raised for unknown sessions or staging without code."""


@dataclass
class StagedCode:
    """Bookkeeping for one session's current code."""

    bundle: CodeBundle
    staged_to: List[str]
    staged_at: float


class ManagingClassLoaderService:
    """Holds the latest code bundle per session and ships it to workers.

    Parameters
    ----------
    env, manager, ftp:
        Simulation environment, the manager node (broadcast source), and
        the transfer service.
    stage_overhead:
        Fixed per-staging service cost in seconds (class-loader set-up,
        request handling); calibrated so a 15 kB bundle takes ~7 s.
    """

    def __init__(
        self,
        env: Environment,
        manager: ManagerNode,
        ftp: GridFTPService,
        stage_overhead: float = 6.5,
        obs: Optional[Observability] = None,
    ) -> None:
        if stage_overhead < 0:
            raise ValueError("stage_overhead must be >= 0")
        self.env = env
        self.obs = obs or NULL_OBS
        self.manager = manager
        self.ftp = ftp
        self.stage_overhead = stage_overhead
        self._staged: Dict[str, StagedCode] = {}

    def current(self, session_id: str) -> CodeBundle:
        """The latest bundle staged for a session."""
        staged = self._staged.get(session_id)
        if staged is None:
            raise CodeLoaderError(f"no code staged for session {session_id!r}")
        return staged.bundle

    def stage(
        self,
        session_id: str,
        bundle: CodeBundle,
        workers: Sequence[Node],
    ) -> Process:
        """Ship *bundle* to every worker; value is the staging time (s).

        Re-staging with a new bundle is the dynamic-reload path
        (``SessionService.reload_code``): the new version replaces the old
        one and engines observe the version bump.
        """
        def run():
            started = self.env.now
            if self.stage_overhead:
                yield self.env.timeout(self.stage_overhead)
            if workers:
                yield self.ftp.broadcast(
                    self.manager,
                    list(workers),
                    f"{session_id}-code-v{bundle.version}",
                    bundle.size_kb / 1000.0,  # kB -> MB
                )
            self._staged[session_id] = StagedCode(
                bundle=bundle,
                staged_to=[node.name for node in workers],
                staged_at=self.env.now,
            )
            return self.env.now - started

        return self.env.process(
            self.obs.tracer.trace_gen(
                "code.stage",
                run(),
                session=session_id,
                version=bundle.version,
                fanout=len(workers),
            )
        )

    def drop_session(self, session_id: str) -> None:
        """Forget a session's staged code (session close)."""
        self._staged.pop(session_id, None)
