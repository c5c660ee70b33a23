"""Multi-site federation: N grid sites on one shared WAN topology.

A :class:`Federation` instantiates N :class:`~repro.core.site.GridSite`
stacks in a single :class:`~repro.sim.Environment` and a single
:class:`~repro.grid.network.Network`, joins their storage elements
pairwise with inter-site WAN links (calibrated
``intersite_wan_mbps``/``intersite_wan_latency_s``), and layers the
cross-site services on top:

- :class:`~repro.federation.catalog.FederatedCatalog` — dataset→site
  placement (home site, sites holding a whole copy), wrapping each
  site's locator and replica stack;
- :class:`~repro.federation.broker.SessionBroker` — locality/admission/
  queue-depth scoring of candidate sites for every client session;
- :class:`~repro.federation.policy.ReplicationPolicy` — pin-N-copies
  placement, SE→SE third-party migration, byte-pressure eviction.

The shared ``desktop`` (site ``"home"``) and ``repository`` (site
``"archive"``) hosts model the analyst's machine and the tape archive;
the archive's LAN attaches to the first site only, so remote sites can
reach archived data exclusively over the WAN — which is exactly the
asymmetry the broker's locality term exists to exploit.

Site partitions (``partition_site``/``heal_site``) sever every WAN
boundary link of one site via the site's failure injector and flip the
site's ``partitioned`` flag; the broker then excludes the site and the
federated client fails sessions over to the next-ranked site.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional

from repro.core.config import DEFAULT_CALIBRATION, Calibration
from repro.core.site import GridSite, SiteConfig
from repro.federation.broker import SessionBroker, SiteScore
from repro.federation.catalog import FederatedCatalog
from repro.federation.errors import FederationError
from repro.federation.policy import ReplicationPolicy
from repro.grid.network import Network
from repro.grid.security import CertificateAuthority, Credential
from repro.obs import Observability
from repro.sim import Environment


class Federation:
    """N simulated grid sites brokered as one analysis fabric."""

    def __init__(
        self,
        n_sites: int = 2,
        site_config: Optional[SiteConfig] = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        site_names: Optional[List[str]] = None,
        pin_copies: int = 1,
        max_replica_mb: Optional[float] = None,
        queue_weight_s: float = 1.0,
    ) -> None:
        if site_names is None:
            if n_sites < 1:
                raise FederationError("n_sites must be >= 1")
            site_names = [f"site{i + 1}" for i in range(n_sites)]
        if len(set(site_names)) != len(site_names):
            raise FederationError("site names must be unique")
        config = site_config or SiteConfig()
        self.config = config
        self.calibration = calibration
        self.env = Environment()
        self.obs = Observability(
            self.env, enabled=config.enable_observability
        )
        self.network = Network(self.env)
        self.network.add_host("desktop", site="home")
        self.network.add_host("repository", site="archive")
        self.ca = CertificateAuthority("ipa-federation-ca")
        self.sites: Dict[str, GridSite] = {}
        for index, name in enumerate(site_names):
            self.sites[name] = GridSite(
                config,
                calibration,
                env=self.env,
                network=self.network,
                name=name,
                ca=self.ca,
                obs=self.obs,
                attach_repository=(index == 0),
            )
        for a, b in combinations(site_names, 2):
            se_a = self.sites[a].storage.name
            se_b = self.sites[b].storage.name
            self.network.add_link(
                f"wan-{se_a}-{se_b}",
                se_a,
                se_b,
                bandwidth=calibration.intersite_wan_mbps,
                latency=calibration.intersite_wan_latency_s,
            )
        self.catalog = FederatedCatalog(self)
        self.policy = ReplicationPolicy(
            self, pin_copies=pin_copies, max_replica_mb=max_replica_mb
        )
        self.broker = SessionBroker(self, queue_weight_s=queue_weight_s)

        metrics = self.obs.metrics
        self._sessions_metric = metrics.counter(
            "federation_sessions_total", "Sessions brokered, per site"
        )
        self._fallback_metric = metrics.counter(
            "federation_broker_fallbacks_total",
            "Candidate sites skipped during ranked brokering",
        )
        self._failover_metric = metrics.counter(
            "federation_failovers_total", "Brokered session failovers"
        )
        self._migration_metric = metrics.counter(
            "federation_migrations_total",
            "Whole-dataset SE-to-SE replica migrations",
        )
        self._eviction_metric = metrics.counter(
            "federation_evictions_total",
            "Replica copies evicted by byte pressure",
        )
        self._wan_metric = metrics.counter(
            "federation_wan_mb_total",
            "Migration payload per site and direction (MB)",
        )
        # Plain-dict shadows keep stats() meaningful when observability
        # (and thus the metric registry) is disabled.
        self._brokered: Dict[str, int] = {}
        self._wan: Dict[tuple, float] = {}
        self._fallbacks = 0
        self._failovers = 0
        self._migrations = 0
        self._evictions = 0

    # -- plumbing --------------------------------------------------------
    @property
    def site_names(self) -> List[str]:
        return list(self.sites)

    def site(self, name: str) -> GridSite:
        try:
            return self.sites[name]
        except KeyError:
            raise FederationError(f"unknown site {name!r}") from None

    def run(self, until: Optional[float] = None) -> None:
        """Advance the shared simulation clock."""
        self.env.run(until=until)

    # -- users -----------------------------------------------------------
    def enroll_user(
        self, subject: str, role: str = "member", vo: Optional[str] = None
    ) -> Credential:
        """Add a VO member at *every* site; issue one shared credential.

        All sites trust the federation CA, so a single credential
        authenticates at whichever site the broker picks.
        """
        for site in self.sites.values():
            target = site.vo if vo is None else site.add_vo(vo)
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
        home: Optional[str] = None,
        kind: str = "gridftp",
    ):
        """Register a dataset federation-wide (see FederatedCatalog)."""
        return self.catalog.register(
            dataset_id,
            path,
            size_mb,
            n_events,
            metadata=metadata,
            content=content,
            home=home,
            kind=kind,
        )

    # -- site partitions ---------------------------------------------------
    def partition_site(self, name: str) -> List[str]:
        """Sever every WAN boundary link of *name*; idempotent.

        In-flight flows crossing the boundary die with ``LinkDown``;
        intra-site traffic keeps flowing — the site is marooned, not
        dead, which is why abandoned sessions there survive to be
        reclaimed on heal.
        """
        site = self.site(name)
        if site.partitioned:
            return []
        links = site.injector.partition_site(name)
        site.partitioned = True
        self.obs.events.emit(
            "site_partitioned",
            message=f"{name} cut off ({len(links)} boundary links down)",
            severity="warning",
            site=name,
            links=len(links),
        )
        return links

    def heal_site(self, name: str) -> List[str]:
        """Restore the WAN boundary of *name*; idempotent."""
        site = self.site(name)
        if not site.partitioned:
            return []
        links = site.injector.heal_site(name)
        site.partitioned = False
        self.obs.events.emit(
            "site_healed",
            message=f"{name} rejoined ({len(links)} boundary links up)",
            severity="info",
            site=name,
            links=len(links),
        )
        return links

    # -- bookkeeping hooks (called by broker/policy/client) ----------------
    def note_brokered(self, score: SiteScore, client_id: str) -> None:
        self._brokered[score.site] = self._brokered.get(score.site, 0) + 1
        self._sessions_metric.inc(site=score.site)
        self.obs.events.emit(
            "federation_session_brokered",
            message=(
                f"{client_id} -> {score.site} "
                f"(score {score.total_s:.1f}s, resident "
                f"{score.resident_mb:.0f} MB, wan {score.wan_mb:.0f} MB)"
            ),
            severity="info",
            site=score.site,
            client=client_id,
            score_s=round(score.total_s, 3),
            resident_mb=score.resident_mb,
            wan_mb=score.wan_mb,
        )

    def note_fallback(self, site: str, reason: str) -> None:
        self._fallbacks += 1
        self._fallback_metric.inc(site=site, reason=reason)

    def note_failover(
        self, from_site: str, to_site: str, client_id: str, reason: str
    ) -> None:
        self._failovers += 1
        self._failover_metric.inc()
        self.obs.events.emit(
            "federation_failover",
            message=f"{client_id}: {from_site} -> {to_site} ({reason})",
            severity="warning",
            client=client_id,
            from_site=from_site,
            to_site=to_site,
            reason=reason,
        )

    def note_migration(
        self,
        dataset_id: str,
        src: str,
        dst: str,
        size_mb: float,
        seconds: float,
    ) -> None:
        self._migrations += 1
        self._migration_metric.inc()
        self._wan[(src, "out")] = self._wan.get((src, "out"), 0.0) + size_mb
        self._wan[(dst, "in")] = self._wan.get((dst, "in"), 0.0) + size_mb
        self._wan_metric.inc(size_mb, site=src, direction="out")
        self._wan_metric.inc(size_mb, site=dst, direction="in")
        self.obs.events.emit(
            "federation_replica_migrated",
            message=(
                f"{dataset_id}: {src} -> {dst} "
                f"({size_mb:.0f} MB in {seconds:.0f}s)"
            ),
            severity="info",
            dataset=dataset_id,
            src=src,
            dst=dst,
            mb=size_mb,
            seconds=round(seconds, 3),
        )

    def note_eviction(self, dataset_id: str, site: str, size_mb: float) -> None:
        self._evictions += 1
        self._eviction_metric.inc()
        self.obs.events.emit(
            "federation_replica_evicted",
            message=f"{dataset_id} copy at {site} dropped ({size_mb:.0f} MB)",
            severity="info",
            dataset=dataset_id,
            site=site,
            mb=size_mb,
            reason="byte-pressure",
        )

    # -- stats -------------------------------------------------------------
    def stats(self) -> dict:
        """Per-site panel rows plus federation-wide counters."""
        rows = []
        for name, site in self.sites.items():
            resident = round(site.replicas.resident_mb(), 3)
            backlog = (
                site.admission.waiting() if site.admission is not None else 0
            )
            rows.append(
                {
                    "site": name,
                    "sessions": self._brokered.get(name, 0),
                    "active_sessions": site.session_service.active_sessions,
                    "resident_replica_mb": resident,
                    "wan_in_mb": round(self._wan.get((name, "in"), 0.0), 3),
                    "wan_out_mb": round(self._wan.get((name, "out"), 0.0), 3),
                    "admission_backlog": backlog,
                    "partitioned": site.partitioned,
                }
            )
        return {
            "sites": rows,
            "brokered": sum(self._brokered.values()),
            "fallbacks": self._fallbacks,
            "failovers": self._failovers,
            "migrations": self._migrations,
            "evictions": self._evictions,
        }
