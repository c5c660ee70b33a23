"""Fault plans and the failure injector.

The injector turns declarative :class:`FaultPlan` entries into concrete
infrastructure failures, layered on the sim kernel's interrupt mechanism:

``crash``
    The worker dies abruptly: its running job is interrupted with
    :class:`~repro.sim.NodeCrash`, the engine deregisters (the OS is gone),
    and the node is marked failed so the scheduler avoids it.
``hang``
    The worker freezes: the job keeps "running" but stops making progress
    and stops heartbeating (:class:`~repro.sim.NodeHang`).  Only the
    session heartbeat monitor can detect this.
``slow``
    The worker degrades: analysis compute is scaled by ``slow_factor``
    (preemption / noisy neighbour).  No interrupt is delivered.
``link-down``
    Every network link of the worker goes down: in-flight transfers fail
    with :class:`~repro.sim.LinkDown` and heartbeats stop reaching the
    manager while the engine keeps computing uselessly.

Every planned fault fires at an absolute simulated time (``at=...``), so a
chaos run replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, TYPE_CHECKING

from repro.grid.network import Network
from repro.grid.scheduler import BatchScheduler
from repro.sim import Environment, NodeCrash, NodeHang

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.replica.manager import ReplicaManager

#: Recognised fault kinds.
FAULT_KINDS = ("crash", "hang", "slow", "link-down")

#: Recognised service-level fault kinds (manager-node process faults).
#: ``combiner-crash`` kills one merge-tier sub-merger (its volatile
#: partial state is lost; affected engines are asked to resync).
SERVICE_FAULT_KINDS = (
    "service-crash",
    "service-restart",
    "checkpoint-torn",
    "combiner-crash",
)

#: Recognised site-level fault kinds (federation WAN events).
SITE_FAULT_KINDS = ("site-partition", "site-heal")


class ServiceUnavailable(Exception):
    """A manager-node service endpoint is down (process crashed).

    Raised by SessionService/AIDAManagerService entry points while the
    service is between a crash and its restart+recovery; clients treat it
    (like a revoked-token ``Fault``) as a signal to back off and
    :meth:`~repro.client.client.IPAClient.reconnect`.
    """


@dataclass(frozen=True)
class ServiceFault:
    """One planned manager-node service fault at an absolute time.

    ``service-crash``
        The SessionService + AIDA manager processes die: volatile session
        state is lost, tokens are revoked, endpoints raise
        :class:`ServiceUnavailable` until restart.
    ``checkpoint-torn``
        Same, but the crash lands mid-checkpoint-flush, leaving a torn
        record recovery must tolerate.
    ``service-restart``
        The processes come back and run cold-start recovery from the
        durable journal + checkpoints.
    """

    kind: str
    at: float

    def __post_init__(self) -> None:
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ValueError(f"unknown service fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("at must be >= 0")


@dataclass(frozen=True)
class SiteFault:
    """One planned site-level WAN fault at an absolute time.

    ``site-partition``
        Every boundary link of the site (links with exactly one endpoint
        inside it) goes down: in-flight WAN transfers fail with
        :class:`~repro.sim.LinkDown`, no route in or out of the site
        survives, but the site keeps running internally.  The federation
        layer heals sessions stranded at a partitioned site by brokered
        failover to the next-ranked site.
    ``site-heal``
        The boundary links come back up.
    """

    site: str
    at: float
    kind: str = "site-partition"

    def __post_init__(self) -> None:
        if self.kind not in SITE_FAULT_KINDS:
            raise ValueError(f"unknown site fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("at must be >= 0")


@dataclass(frozen=True)
class WorkerFault:
    """One planned fault against a named worker at an absolute time."""

    worker: str
    at: float
    kind: str = "crash"
    slow_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1.0")


@dataclass
class FaultPlan:
    """A reproducible schedule of infrastructure faults: worker, service
    and site faults, each at an absolute simulated time."""

    faults: List[WorkerFault] = field(default_factory=list)
    service_faults: List[ServiceFault] = field(default_factory=list)
    site_faults: List[SiteFault] = field(default_factory=list)

    def add(self, fault: WorkerFault) -> "FaultPlan":
        """Append a fault; returns self for chaining."""
        self.faults.append(fault)
        return self

    def add_site(self, fault: SiteFault) -> "FaultPlan":
        """Append a site-level fault; returns self for chaining."""
        self.site_faults.append(fault)
        return self

    def scheduled(self) -> List[WorkerFault]:
        """The worker faults in firing order."""
        return sorted(self.faults, key=lambda f: (f.at, f.worker))


class FailureInjector:
    """Applies faults to a running site.

    Parameters
    ----------
    env, scheduler:
        The simulation environment and the batch scheduler owning the
        workers.
    network:
        The site's network (``link-down`` and site faults).
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

    def apply_site_fault(self, fault: SiteFault) -> None:
        """Fire one planned site fault now."""
        if fault.kind == "site-partition":
            self.partition_site(fault.site)
        elif fault.kind == "site-heal":
            self.heal_site(fault.site)
        else:  # pragma: no cover - guarded by SiteFault validation
            raise ValueError(f"unknown site fault kind {fault.kind!r}")

    # -- service faults ---------------------------------------------------
    def crash_services(self, torn_checkpoint: bool = False) -> None:
        """Kill the SessionService + AIDA manager processes.

        Volatile session state is lost and every RMI token revoked; the
        durable journal/checkpoint files survive (minus any unsynced
        tail).  With ``torn_checkpoint`` the crash lands mid-flush,
        leaving a half-written checkpoint record behind.
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

    def apply_service_fault(self, fault: ServiceFault) -> None:
        """Fire one planned service fault now."""
        if fault.kind == "service-crash":
            self.crash_services()
        elif fault.kind == "checkpoint-torn":
            self.crash_services(torn_checkpoint=True)
        elif fault.kind == "service-restart":
            self.restart_services()
        else:  # pragma: no cover - guarded by ServiceFault validation
            raise ValueError(f"unknown service fault kind {fault.kind!r}")

    def apply_fault(self, fault: WorkerFault) -> None:
        """Fire one planned fault now."""
        if fault.kind == "crash":
            self.crash_worker(fault.worker)
        elif fault.kind == "hang":
            self.hang_worker(fault.worker)
        elif fault.kind == "slow":
            self.slow_worker(fault.worker, fault.slow_factor)
        elif fault.kind == "link-down":
            self.cut_links(fault.worker)
        else:  # pragma: no cover - guarded by WorkerFault validation
            raise ValueError(f"unknown fault kind {fault.kind!r}")

    # -- plan execution --------------------------------------------------
    def apply(self, plan: FaultPlan) -> List:
        """Start simulation processes that execute *plan*.

        Returns the started processes (for tests that want to wait on
        them); faults fire as simulated time reaches them.
        """
        procs = []
        for fault in plan.scheduled():
            procs.append(self.env.process(self._fire_at(fault)))
        for service_fault in sorted(plan.service_faults, key=lambda f: f.at):
            procs.append(self.env.process(self._fire_service_at(service_fault)))
        for site_fault in sorted(
            plan.site_faults, key=lambda f: (f.at, f.site)
        ):
            procs.append(self.env.process(self._fire_site_at(site_fault)))
        return procs

    def _fire_at(self, fault: WorkerFault):
        delay = fault.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.apply_fault(fault)

    def _fire_service_at(self, fault: ServiceFault):
        delay = fault.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.apply_service_fault(fault)

    def _fire_site_at(self, fault: SiteFault):
        delay = fault.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.apply_site_fault(fault)

    # -- internals --------------------------------------------------------
    def _interrupt_job(self, worker_name: str, cause) -> None:
        job = self.scheduler.running_job_on(worker_name)
        if job is not None and job._process is not None and job._process.is_alive:
            job._process.interrupt(cause)
