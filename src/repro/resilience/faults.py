"""The failure injector.

Each method turns one fault into a concrete infrastructure failure,
layered on the sim kernel's interrupt mechanism, at the simulated time
it is called:

``crash_worker``
    The worker dies abruptly: its running job is interrupted with
    :class:`~repro.sim.NodeCrash`, the engine deregisters (the OS is gone),
    and the node is marked failed so the scheduler avoids it.
``hang_worker``
    The worker freezes: the job keeps "running" but stops making progress
    and stops heartbeating (:class:`~repro.sim.NodeHang`).  Only the
    session heartbeat monitor can detect this.
``slow_worker``
    The worker degrades: analysis compute is scaled by ``factor``
    (preemption / noisy neighbour).  No interrupt is delivered.
``cut_links``
    Every network link of the worker goes down: in-flight transfers fail
    with :class:`~repro.sim.LinkDown` and heartbeats stop reaching the
    manager while the engine keeps computing uselessly.

``crash_combiner``, ``partition_site`` / ``heal_site`` and
``crash_services`` / ``restart_services`` do the same for a merge-tier
combiner, a site's WAN boundary and the manager-node processes.  A
caller that wants a fault at a given time waits for it with its own
``env.timeout``, so a chaos run replays exactly.
"""

from __future__ import annotations

from typing import List, Tuple, TYPE_CHECKING

from repro.grid.network import Network
from repro.grid.scheduler import BatchScheduler
from repro.sim import Environment, NodeCrash, NodeHang

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.replica.manager import ReplicaManager


class ServiceUnavailable(Exception):
    """A manager-node service endpoint is down (process crashed).

    Raised by SessionService/AIDAManagerService entry points while the
    service is between a crash and its restart+recovery; clients treat it
    (like a revoked-token ``Fault``) as a signal to back off and
    :meth:`~repro.client.client.IPAClient.reconnect`.
    """


class FailureInjector:
    """Applies faults to a running site.

    Parameters
    ----------
    env, scheduler:
        The simulation environment and the batch scheduler owning the
        workers.
    network:
        The site's network (``cut_links`` and site faults).
    replicas:
        The site's replica manager: worker-killing faults invalidate the
        victim's cached dataset parts so no stale replica is served.
    session_service:
        The site's session service (crash/restart of the manager-node
        processes, combiner crashes).
    """

    def __init__(
        self,
        env: Environment,
        scheduler: BatchScheduler,
        network: Network,
        replicas: "ReplicaManager",
        session_service,
        obs=None,
    ) -> None:
        from repro.obs import NULL_OBS

        self.env = env
        self.scheduler = scheduler
        self.network = network
        self.replicas = replicas
        self.session_service = session_service
        self.obs = obs or NULL_OBS
        #: Chronological record of injected faults: (time, kind, worker).
        self.log: List[Tuple[float, str, str]] = []

    def _record(self, kind: str, target: str, **attrs) -> None:
        self.log.append((self.env.now, kind, target))
        self.obs.events.emit(
            "fault_injected",
            message=f"{kind} -> {target}",
            severity="warning",
            kind=kind,
            target=target,
            **attrs,
        )

    # -- direct injection ------------------------------------------------
    def crash_worker(self, name: str) -> None:
        """Kill *name* abruptly (its job fails with :class:`NodeCrash`)."""
        worker = self.scheduler.element.worker(name)
        worker.failed = True
        self._interrupt_job(name, NodeCrash(name, "worker crashed"))
        self.replicas.invalidate_host(name)
        self._record("crash", name)

    def hang_worker(self, name: str) -> None:
        """Freeze *name*: the job never terminates, heartbeats stop."""
        worker = self.scheduler.element.worker(name)
        worker.failed = True
        self._interrupt_job(name, NodeHang(name, "worker hung"))
        self.replicas.invalidate_host(name)
        self._record("hang", name)

    def slow_worker(self, name: str, factor: float = 4.0) -> None:
        """Degrade *name*: analysis compute is scaled by *factor*."""
        if factor < 1.0:
            raise ValueError("factor must be >= 1.0")
        worker = self.scheduler.element.worker(name)
        worker.slow_factor = factor
        self._record("slow", name, factor=factor)

    def crash_combiner(self, session_id: str, combiner_id: str):
        """Kill one merge-tier combiner node (generator process).

        The combiner's volatile caches are lost at the AIDA manager; the
        affected paths re-fold without the lost contributions and every
        affected *live* engine is directed to republish a full keyframe
        (finished engines would otherwise never resend — see
        ``SessionService.resync_engines``).  Returns the affected engine
        ids.
        """
        affected = self.session_service.aida.crash_combiner(
            session_id, combiner_id
        )
        self._record(
            "combiner-crash",
            combiner_id,
            session=session_id,
            engines=len(affected),
        )
        yield from self.session_service.resync_engines(session_id, affected)
        return affected

    def cut_links(self, name: str) -> List[str]:
        """Take down every network link of worker *name*.

        The engine keeps computing but cannot heartbeat or receive
        directives, so the session monitor eventually declares it dead.
        Returns the failed link names.
        """
        worker = self.scheduler.element.worker(name)
        worker.failed = True
        worker.link_down = True
        failed = self.network.fail_links_of(name)
        # Conservative: a partitioned worker may be rebuilt before its
        # links return, so treat its cached parts as lost.
        self.replicas.invalidate_host(name)
        self._record("link-down", name)
        return failed

    def restore_worker(self, name: str) -> None:
        """Return a crashed/hung/slow worker to the schedulable pool."""
        self.scheduler.restore_worker(name)
        self.log.append((self.env.now, "restore", name))

    # -- site faults -------------------------------------------------------
    def partition_site(self, site: str) -> List[str]:
        """Cut every boundary link of *site* (WAN partition).

        Intra-site links stay up, so the site keeps computing internally;
        in-flight transfers crossing the boundary fail with
        :class:`~repro.sim.LinkDown`.  Returns the failed link names (for
        :meth:`heal_site`).  Idempotent at the link level.
        """
        names = [link.name for link in self.network.boundary_links(site)]
        for link_name in names:
            self.network.fail_link(link_name)
        self._record("site-partition", site, links=len(names))
        return names

    def heal_site(self, site: str) -> List[str]:
        """Restore every boundary link of *site*; returns their names."""
        names = [link.name for link in self.network.boundary_links(site)]
        for link_name in names:
            self.network.restore_link(link_name)
        self.log.append((self.env.now, "site-heal", site))
        return names

    # -- service faults ---------------------------------------------------
    def crash_services(self, torn_checkpoint: bool = False) -> None:
        """Kill the SessionService + AIDA manager processes.

        Volatile session state is lost and every RMI token revoked; the
        durable journal/checkpoint files survive.  With
        ``torn_checkpoint`` the crash lands mid-flush, leaving a
        half-written checkpoint record behind.
        """
        self.session_service.crash(torn_checkpoint=torn_checkpoint)
        kind = "checkpoint-torn" if torn_checkpoint else "service-crash"
        self._record(kind, "manager")

    def restart_services(self):
        """Restart the services and run cold-start recovery.

        Returns the recovery process; ``yield`` it to wait for every
        journaled session to be rebuilt.
        """
        self.log.append((self.env.now, "service-restart", "manager"))
        return self.env.process(self.session_service.recover())

    # -- internals --------------------------------------------------------
    def _interrupt_job(self, worker_name: str, cause) -> None:
        job = self.scheduler.running_job_on(worker_name)
        if job is not None and job._process is not None and job._process.is_alive:
            job._process.interrupt(cause)
