"""WAN-aware session brokering across federated sites.

Every candidate site gets a scalar score in *seconds of expected delay*:

``total_s = transfer_s + admission_wait_s + queue_weight_s · queue_depth``

- ``transfer_s`` — 0 when the dataset is whole-resident at the site's
  SE (the warm path skips the fetch entirely); otherwise the cheapest
  WAN source estimate from the replication policy's selector-based
  ranking, or ``inf`` when no source is reachable.
- ``admission_wait_s`` — 0 when the site's per-VO admission controller
  would admit the session now; otherwise its current ``RetryAfter``
  hint (backlog-scaled).
- ``queue_depth`` — open sessions at the site, weighted into seconds by
  ``queue_weight_s``.

Partitioned sites score ``None`` and are excluded.  Ties break by site
name, so brokering is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.federation.errors import FederationError


@dataclass(frozen=True)
class SiteScore:
    """One site's brokering score (lower ``total_s`` wins)."""

    site: str
    resident_mb: float
    wan_mb: float
    transfer_s: float
    admission_wait_s: float
    queue_depth: int
    queue_wait_s: float

    @property
    def total_s(self) -> float:
        return self.transfer_s + self.admission_wait_s + self.queue_wait_s


class SessionBroker:
    """Scores and ranks candidate sites for a client session."""

    def __init__(self, federation, queue_weight_s: float = 1.0) -> None:
        if queue_weight_s < 0:
            raise FederationError("queue_weight_s must be >= 0")
        self.federation = federation
        self.queue_weight_s = queue_weight_s

    def score(
        self,
        site_name: str,
        dataset_id: Optional[str] = None,
        n_engines: Optional[int] = None,
        vo: str = "ilc",
    ) -> Optional[SiteScore]:
        """Score one site, or ``None`` when it is partitioned."""
        fed = self.federation
        site = fed.site(site_name)
        if site.partitioned:
            return None
        resident_mb = wan_mb = transfer_s = 0.0
        if dataset_id is not None:
            placement = fed.catalog.placement(dataset_id)
            location = site.locator.locate(dataset_id)
            if site.replicas.has_whole(location):
                resident_mb = placement.size_mb
            else:
                wan_mb = placement.size_mb
                sources = fed.policy.rank_sources(dataset_id, site_name)
                transfer_s = (
                    sources[0][1].total_s if sources else float("inf")
                )
        engines = n_engines if n_engines is not None else site.config.n_workers
        admission_wait = 0.0
        if site.admission is not None and not site.admission.would_admit(
            vo, engines
        ):
            admission_wait = site.admission.retry_hint()
        depth = site.session_service.active_sessions
        return SiteScore(
            site=site_name,
            resident_mb=resident_mb,
            wan_mb=wan_mb,
            transfer_s=transfer_s,
            admission_wait_s=admission_wait,
            queue_depth=depth,
            queue_wait_s=self.queue_weight_s * depth,
        )

    def rank(
        self,
        dataset_id: Optional[str] = None,
        n_engines: Optional[int] = None,
        vo: str = "ilc",
    ) -> List[SiteScore]:
        """All unpartitioned sites, best (lowest ``total_s``) first."""
        scores = [
            score
            for score in (
                self.score(name, dataset_id, n_engines, vo)
                for name in self.federation.sites
            )
            if score is not None
        ]
        scores.sort(key=lambda s: (s.total_s, s.site))
        return scores
