"""GridSite: one-call assembly of the full simulated deployment of Fig. 2.

Builds, on a fresh simulation environment:

* the network (desktop —WAN— site; repository —LAN— storage element;
  per-worker LAN links; manager links for code staging and result polling);
* the nodes (desktop, manager, storage element, N workers) and the compute
  element with its batch scheduler (dedicated interactive queue + a slow
  batch queue);
* the security fabric (CA, service credential, VO, site policy, GRAM
  gatekeeper);
* every manager service (catalog, locator, splitter, registry, code
  loader, AIDA manager, session service, control service) registered in a
  :class:`~repro.services.envelope.ServiceContainer`;
* standard catalog content: the ILC simulation datasets of the paper's
  evaluation plus a trading-records dataset for the cross-domain example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import DEFAULT_CALIBRATION, Calibration
from repro.grid.admission import AdmissionController
from repro.grid.gram import GramGatekeeper
from repro.grid.network import Network
from repro.grid.nodes import (
    ComputeElement,
    ManagerNode,
    NodeSpec,
    StorageElement,
    WorkerNode,
)
from repro.grid.scheduler import BatchScheduler, QueueSpec
from repro.grid.security import (
    AuthorizationService,
    CertificateAuthority,
    Credential,
    SitePolicy,
    VirtualOrganization,
)
from repro.grid.transfer import GridFTPService
from repro.obs import Observability
from repro.replica import ReplicaManager
from repro.resilience import DurableStore, FailureInjector, RetryPolicy
from repro.services.aida_manager import AIDAManagerService
from repro.services.catalog import DatasetCatalogService, DatasetEntry
from repro.services.codeloader import ManagingClassLoaderService
from repro.services.content import ContentStore
from repro.services.control import ControlService
from repro.services.envelope import ServiceContainer, ServiceProfile
from repro.services.locator import DatasetLocation, LocatorService
from repro.services.registry import WorkerRegistryService
from repro.services.session import SessionService
from repro.services.splitter import SplitterService
from repro.sim import Environment


@dataclass(frozen=True)
class SiteConfig:
    """Shape of the simulated site.

    Parameters
    ----------
    n_workers:
        Worker-node count (the paper's dedicated queue had 16).
    max_engines_per_session:
        VO policy ceiling (defaults to ``n_workers``).
    merge_fan_in:
        Degree of each session's merge tree (``None`` = one leaf owns
        every engine, the single merging component of §3.7).  With a
        fan-in, engines publish to leaf combiners which fold
        incrementally and push combined deltas up to the root (see
        :mod:`repro.services.combiner`).
    enable_observability:
        Record spans and metrics across every tier (see :mod:`repro.obs`).
        Off by default: instrumentation then routes through shared null
        objects and costs almost nothing.
    worker_cache_mb:
        Per-worker replica cache capacity in MB (``None`` = unbounded).
    checkpoint_every_s:
        Period of the per-session checkpoint loop in simulated seconds
        (> 0).  The durable session layer always runs (its writes charge
        zero simulated time); every journal record is durable at once and
        every fourth checkpoint is a keyframe.
    service_concurrency:
        Dispatch slots per container service (``None`` = direct
        dispatch, no request queue).  When set, the control, session and
        aida services each get a request queue (unbounded — see
        :class:`~repro.services.envelope.ServiceProfile`) drained by
        this many cooperative loops.
    service_dispatch_overhead_s:
        Fixed per-request cost charged by a dispatch slot before the
        handler runs (connection demultiplexing, envelope parsing).
    poll_coalesce_window_s:
        Floor on a merge's latency, so that near-simultaneous pollers
        can join it (0 = only polls overlapping the merge's own latency
        coalesce).  A merge starts when a session's merge state
        changes; a poll with none in flight waits for no window: it gets
        the last merge's reply.
    max_concurrent_engines:
        Site-wide cap on engines running across all sessions (``None``
        = no admission control).  When set, session admits go through
        a per-VO weighted fair-share queue.
    vo_shares:
        Relative fair-share weights per VO name (unlisted VOs get 1.0).
    admission_queue_depth:
        Admissions each VO may queue while over quota; beyond that the
        site refuses with ``RetryAfter`` backpressure (0 = never queue).

    Every site runs the replica plane (catalog + per-worker caches, see
    :mod:`repro.replica`) and the recovery plane (heartbeat monitor +
    partition re-dispatch, see :mod:`repro.services.recovery`); neither
    has an off switch.
    """

    n_workers: int = 16
    max_engines_per_session: Optional[int] = None
    merge_fan_in: Optional[int] = None
    enable_observability: bool = False
    worker_cache_mb: Optional[float] = None
    checkpoint_every_s: float = 30.0
    service_concurrency: Optional[int] = None
    service_dispatch_overhead_s: float = 0.0
    poll_coalesce_window_s: float = 0.0
    max_concurrent_engines: Optional[int] = None
    vo_shares: Optional[Dict[str, float]] = None
    admission_queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if (
            self.max_concurrent_engines is not None
            and self.max_concurrent_engines < 1
        ):
            raise ValueError("max_concurrent_engines must be >= 1")
        if self.checkpoint_every_s <= 0:
            raise ValueError("checkpoint_every_s must be > 0")


class GridSite:
    """The assembled simulated grid site plus its service container.

    By default a site is a self-contained world: it creates its own
    simulation environment, network, CA, and observability, with the
    paper's literal host names (``desktop``/``repository``/``manager``/
    ``se``/``w0``...).  For multi-site federation the constructor accepts
    a shared ``env`` + ``network`` (plus optionally a shared ``ca`` and
    ``obs``) and a site ``name``: the site's hosts are then prefixed
    (``{name}-manager``, ``{name}-se``, ``{name}-w0``...), its hosts carry
    ``site={name}`` labels, and the shared client/archive endpoints
    (``desktop``, ``repository``) are created only if absent.  With
    ``name=None`` the assembly is bit-identical to the historical
    single-site build.

    ``attach_repository`` controls whether this site's SE gets a LAN link
    to the shared archive host; a federation attaches the repository to
    one site only so that archive links never become a WAN bypass between
    sites.
    """

    def __init__(
        self,
        config: SiteConfig = SiteConfig(),
        calibration: Calibration = DEFAULT_CALIBRATION,
        *,
        env: Optional[Environment] = None,
        network: Optional[Network] = None,
        name: Optional[str] = None,
        ca: Optional[CertificateAuthority] = None,
        obs: Optional[Observability] = None,
        attach_repository: bool = True,
    ) -> None:
        if (env is None) != (network is None):
            raise ValueError("env and network must be provided together")
        self.config = config
        self.calibration = calibration
        cal = calibration
        self.env = env if env is not None else Environment()
        env = self.env
        #: Site label on the shared topology ("slac" for the historical
        #: standalone build).
        self.name = name if name is not None else "slac"
        prefix = f"{name}-" if name is not None else ""
        #: Set by the federation layer while this site's WAN boundary is
        #: severed; the federated client turns it into brokered failover.
        self.partitioned = False
        self.obs = (
            obs
            if obs is not None
            else Observability(env, enabled=config.enable_observability)
        )

        # -- network ---------------------------------------------------
        net = network if network is not None else Network(env)
        self.network = net
        mgr_host = f"{prefix}manager"
        se_host = f"{prefix}se"
        if "desktop" not in net.hosts:
            net.add_host("desktop", site="home")
        if "repository" not in net.hosts:
            net.add_host("repository", site="archive")
        net.add_host(mgr_host, site=self.name)
        net.add_host(se_host, site=self.name)
        if "wan-desktop-repo" not in net.links:
            net.add_link(
                "wan-desktop-repo",
                "desktop",
                "repository",
                bandwidth=cal.wan_bandwidth_mbps,
                latency=cal.wan_latency_s,
            )
        net.add_link(
            f"wan-desktop-{mgr_host}",
            "desktop",
            mgr_host,
            bandwidth=cal.wan_bandwidth_mbps,
            latency=cal.wan_latency_s,
        )
        if attach_repository:
            net.add_link(
                f"lan-repo-{se_host}",
                "repository",
                se_host,
                bandwidth=cal.lan_fetch_bandwidth_mbps,
                latency=cal.lan_latency_s,
            )
        net.add_link(
            f"lan-{mgr_host}-{se_host}",
            mgr_host,
            se_host,
            bandwidth=cal.lan_fetch_bandwidth_mbps,
            latency=cal.lan_latency_s,
        )

        # -- nodes ---------------------------------------------------------
        local_disk = NodeSpec(disk_read_mbps=400.0, disk_write_mbps=400.0)
        se_spec = NodeSpec(disk_read_mbps=cal.se_disk_mbps, disk_write_mbps=cal.se_disk_mbps)
        self.desktop = ManagerNode(env, "desktop", local_disk)
        self.manager = ManagerNode(env, mgr_host, local_disk)
        self.storage = StorageElement(env, se_host, se_spec)
        self.workers: List[WorkerNode] = []
        for index in range(config.n_workers):
            worker_host = f"{prefix}w{index}"
            net.add_host(worker_host, site=self.name)
            net.add_link(
                f"lan-{se_host}-{worker_host}",
                se_host,
                worker_host,
                bandwidth=cal.worker_link_mbps,
                latency=cal.lan_latency_s,
            )
            net.add_link(
                f"lan-{mgr_host}-{worker_host}",
                mgr_host,
                worker_host,
                bandwidth=cal.worker_link_mbps,
                latency=cal.lan_latency_s,
            )
            self.workers.append(WorkerNode(env, worker_host, local_disk))

        # -- scheduler + security ----------------------------------------
        self.element = ComputeElement(f"{self.name}-osg", self.workers)
        self.scheduler = BatchScheduler(env, self.element, obs=self.obs)
        self.scheduler.add_queue(
            QueueSpec(
                "interactive",
                priority=1,
                dispatch_latency=cal.interactive_dispatch_s,
            )
        )
        self.scheduler.add_queue(
            QueueSpec("batch", priority=10, dispatch_latency=cal.batch_dispatch_s)
        )
        self.ca = ca if ca is not None else CertificateAuthority("ipa-ca")
        service_subject = (
            "/O=SLAC/CN=ipa-service"
            if name is None
            else f"/O={self.name}/CN=ipa-service"
        )
        self.service_credential = self.ca.issue_identity(
            service_subject, now=0.0
        )
        self.vo = VirtualOrganization("ilc")
        #: All VOs known at this site, by name (grown by :meth:`add_vo`).
        self._vos: Dict[str, VirtualOrganization] = {"ilc": self.vo}
        max_engines = (
            config.max_engines_per_session
            if config.max_engines_per_session is not None
            else config.n_workers
        )
        self.policy = SitePolicy(
            max_engines_per_session=max_engines,
            interactive_queue="interactive",
            allowed_vos=("ilc",),
        )
        self.authz = AuthorizationService([self.vo], self.policy)
        self.gram = GramGatekeeper(
            env,
            self.scheduler,
            self.ca,
            self.authz,
            auth_overhead=cal.gram_auth_overhead_s,
            obs=self.obs,
        )

        # -- transfer + services --------------------------------------------
        self.ftp = GridFTPService(
            env,
            net,
            setup_overhead=0.2,
            retry_policy=RetryPolicy(
                max_attempts=3,
                base_delay=1.0,
                multiplier=2.0,
                max_delay=30.0,
                # Deterministic jitter: de-synchronizes concurrent
                # retries without losing repeatability.
                jitter=0.25,
                seed=0,
            ),
            obs=self.obs,
        )
        self.container = ServiceContainer(
            env,
            soap_latency=cal.soap_latency_s,
            rmi_latency=cal.rmi_latency_s,
            obs=self.obs,
        )
        self.catalog = DatasetCatalogService()
        self.locator = LocatorService()
        self.splitter = SplitterService(
            env,
            self.storage,
            self.ftp,
            split_rate=cal.split_rate_s_per_mb,
            per_file_overhead=cal.split_per_file_overhead_s,
            obs=self.obs,
        )
        self.registry = WorkerRegistryService(env, obs=self.obs)
        self.codeloader = ManagingClassLoaderService(
            env,
            self.manager,
            self.ftp,
            stage_overhead=cal.code_stage_overhead_s,
            obs=self.obs,
        )
        self.aida = AIDAManagerService(
            env,
            merge_cost_per_tree=cal.merge_cost_per_tree_s,
            fan_in=config.merge_fan_in,
            obs=self.obs,
            coalesce_window_s=config.poll_coalesce_window_s,
        )
        self.content_store = ContentStore()
        # Replica catalog + per-worker caches (warm re-staging, §4's
        # repeat-analysis scenario).
        self.replicas = ReplicaManager(
            env,
            net,
            self.storage,
            self.workers,
            capacity_mb=config.worker_cache_mb,
            se_disk_mbps=cal.se_disk_mbps,
            obs=self.obs,
        )
        # Durable manager-node disk for the session journal + checkpoints;
        # survives service crashes.
        self.durable_store = DurableStore()
        # Per-VO fair-share admission: caps engines running site-wide and
        # queues (or refuses) session admits weighted by VO share.
        self.admission = (
            AdmissionController(
                env,
                capacity=config.max_concurrent_engines,
                shares=config.vo_shares,
                queue_depth=config.admission_queue_depth,
                obs=self.obs,
            )
            if config.max_concurrent_engines is not None
            else None
        )
        self.session_service = SessionService(
            env=env,
            gram=self.gram,
            registry=self.registry,
            catalog=self.catalog,
            locator=self.locator,
            splitter=self.splitter,
            codeloader=self.codeloader,
            aida=self.aida,
            ftp=self.ftp,
            storage=self.storage,
            content_store=self.content_store,
            calibration=cal,
            obs=self.obs,
            replicas=self.replicas,
            durable_store=self.durable_store,
            checkpoint_every_s=config.checkpoint_every_s,
            container=self.container,
            admission=self.admission,
        )
        # Per-service request loops (opt-in: the default site dispatches
        # directly, matching the seed's calibration).
        if config.service_concurrency is not None:
            profile = ServiceProfile(
                concurrency=config.service_concurrency,
                dispatch_overhead_s=config.service_dispatch_overhead_s,
            )
            for service in ("control", "session", "aida"):
                self.container.configure_service(service, profile)
        # Deterministic fault injection for chaos tests and benchmarks.
        self.injector = FailureInjector(
            env,
            self.scheduler,
            network=net,
            replicas=self.replicas,
            session_service=self.session_service,
            obs=self.obs,
        )
        self.control = ControlService(
            env,
            self.ca,
            self.service_credential,
            self.session_service,
            self.container,
            site_name=self.name,
        )

        # Expose services through the container (what the client calls).
        self.container.register_object("catalog", self.catalog)
        self.container.register_object("locator", self.locator)
        self.container.register(
            "control",
            {
                "create_session": self.control.create_session,
                "close_session": self.control.close_session,
                "reconnect_session": self.control.reconnect_session,
                "stats": self.control.stats,
            },
        )
        self.container.register(
            "session",
            {
                "add_dataset": self.session_service.add_dataset,
                "stage_code": self.session_service.stage_code,
                "reload_code": self.session_service.reload_code,
                "control": self.session_service.control,
                "status": self.session_service.status,
            },
        )
        self.container.register(
            "aida",
            {
                "merged": self.aida.merged,
                "snapshot_count": self.aida.snapshot_count,
            },
        )

    # -- users ---------------------------------------------------------
    def add_vo(self, name: str) -> VirtualOrganization:
        """Register (and allow) another VO at this site; idempotent."""
        existing = self._vos.get(name)
        if existing is not None:
            return existing
        vo = VirtualOrganization(name)
        self._vos[name] = vo
        self.authz.add_vo(vo)
        return vo

    def enroll_user(
        self, subject: str, role: str = "member", vo: Optional[str] = None
    ) -> Credential:
        """Add a VO member (default VO: ``ilc``) and issue their credential."""
        target = self.vo if vo is None else self.add_vo(vo)
        target.add_member(subject, role)
        return self.ca.issue_identity(subject, now=self.env.now)

    # -- datasets ---------------------------------------------------------
    def register_dataset(
        self,
        dataset_id: str,
        path: str,
        size_mb: float,
        n_events: int,
        metadata: Optional[dict] = None,
        content: Optional[dict] = None,
        origin_host: Optional[str] = "repository",
        kind: str = "gridftp",
    ) -> DatasetEntry:
        """Register a dataset in catalog + locator in one step.

        ``origin_host`` of ``"repository"`` means the file must first be
        fetched over the site LAN to the SE ("move whole"); ``None`` means
        it is already resident on the SE.  ``kind="database"`` registers a
        contiguous-record DB location (no fetch, no split pass — §3.4).
        """
        if kind == "database":
            origin_host = None  # range queries serve directly from the DB
        entry = DatasetEntry(
            dataset_id=dataset_id,
            path=path,
            metadata=dict(metadata or {}),
            size_mb=size_mb,
            n_events=n_events,
            content=dict(content or {"kind": "ilc", "seed": 0}),
        )
        self.catalog.register(entry)
        self.locator.add_location(
            DatasetLocation(
                dataset_id=dataset_id,
                kind=kind,
                host=self.storage.name,
                path=f"/store/{dataset_id}.ipad",
                size_mb=size_mb,
                n_events=n_events,
                splitter_host=self.storage.name,
                origin_host=origin_host,
            )
        )
        return entry

    def register_standard_datasets(self) -> None:
        """Register the paper-scale ILC datasets plus the trading dataset."""
        self.register_dataset(
            "ilc-zh-500gev",
            "/ilc/simulation/zh-500gev",
            size_mb=471.0,
            n_events=40_000,
            metadata={
                "experiment": "ilc",
                "process": "zh",
                "energy": 500,
                "detector": "sid",
                "format": "ipad",
            },
            content={"kind": "ilc", "seed": 500},
        )
        self.register_dataset(
            "ilc-zh-small",
            "/ilc/simulation/zh-small",
            size_mb=10.0,
            n_events=2_000,
            metadata={"experiment": "ilc", "process": "zh", "energy": 500},
            content={"kind": "ilc", "seed": 501},
        )
        self.register_dataset(
            "trading-nyse-2006",
            "/business/trading/nyse-2006",
            size_mb=50.0,
            n_events=5_000,
            metadata={"domain": "finance", "venue": "nyse", "year": 2006},
            content={"kind": "trading", "seed": 77, "trades_per_day": 50},
            origin_host=None,
        )
