"""Federated catalog: dataset→site placement over per-site replica state.

Wraps — never replaces — each site's locator/catalog/ReplicaCatalog
stack: a dataset registered through the federation gets a location record
at *every* site (the home site resident by construction, remote sites
pointing their ``origin_host`` at the home SE), and per-site replica
residency remains the property of each site's own
:class:`~repro.replica.manager.ReplicaManager`.  What the federation adds
is the cross-site view: which sites hold a whole copy right now, which
site is home, and per-site placement generations driven by the locator
update hooks' originating-site id (so an update at one site never
invalidates another site's copies — the over-invalidation footgun the
site-id hook fix exists to prevent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.federation.errors import FederationError
from repro.services.locator import LocatorError


@dataclass(frozen=True)
class Placement:
    """Federation-level placement record for one dataset."""

    dataset_id: str
    home: str
    size_mb: float
    n_events: int
    kind: str = "gridftp"


class FederatedCatalog:
    """Cross-site dataset placement with per-site generations."""

    def __init__(self, federation) -> None:
        self.federation = federation
        self._placements: Dict[str, Placement] = {}
        #: (dataset_id, site_id) -> locator-update count at that site.
        self._site_generations: Dict[Tuple[str, Optional[str]], int] = {}
        #: Chronological (dataset_id, site_id) invalidations (diagnostics).
        self.invalidations: List[Tuple[str, Optional[str]]] = []
        for site in federation.sites.values():
            site.locator.add_update_hook(self._on_locator_update)

    # -- locator hooks ---------------------------------------------------
    def _on_locator_update(
        self, dataset_id: str, site_id: Optional[str]
    ) -> None:
        """One site re-registered a dataset.

        The originating site's own replica manager has already bumped its
        local generation through its own locator hook; here only that
        site's federation-level generation moves — every other site's
        replicas stay valid.
        """
        key = (dataset_id, site_id)
        self._site_generations[key] = self._site_generations.get(key, 0) + 1
        self.invalidations.append((dataset_id, site_id))

    def generation(self, dataset_id: str, site: str) -> int:
        """Locator-update count of *dataset_id* at *site* (0 = pristine)."""
        return self._site_generations.get((dataset_id, site), 0)

    # -- registration ------------------------------------------------------
    def register(
        self,
        dataset_id: str,
        path: str,
        size_mb: float,
        n_events: int,
        metadata: Optional[dict] = None,
        content: Optional[dict] = None,
        home: Optional[str] = None,
        kind: str = "gridftp",
    ) -> Placement:
        """Register a dataset federation-wide, homed at one site.

        The home site's copy is SE-resident by construction; every other
        site gets a location whose ``origin_host`` is the home SE, so a
        cold stage there naturally pulls the file over the inter-site WAN
        link (and the replication policy can pre-migrate it via
        third-party transfer instead).
        """
        sites = self.federation.sites
        if home is None:
            home = next(iter(sites))
        if home not in sites:
            raise FederationError(f"unknown home site {home!r}")
        if dataset_id in self._placements:
            raise FederationError(
                f"dataset {dataset_id!r} already placed (home "
                f"{self._placements[dataset_id].home!r})"
            )
        home_se = sites[home].storage.name
        for name, site in sites.items():
            origin = None if name == home else home_se
            site.register_dataset(
                dataset_id,
                path,
                size_mb=size_mb,
                n_events=n_events,
                metadata=metadata,
                content=content,
                origin_host=origin,
                kind=kind,
            )
        placement = Placement(dataset_id, home, float(size_mb), n_events, kind)
        self._placements[dataset_id] = placement
        return placement

    def republish(self, dataset_id: str, site: str) -> None:
        """Re-register a dataset's location at *one* site.

        Fires that site's locator update hooks (carrying the site id), so
        only that site's replicas are invalidated — the other sites' whole
        copies keep serving.
        """
        target = self.federation.site(site)
        location = target.locator.locate(dataset_id)
        target.locator.replace_location(location)

    # -- placement queries -------------------------------------------------
    def placement(self, dataset_id: str) -> Placement:
        """The federation placement of *dataset_id* (raises when unknown)."""
        try:
            return self._placements[dataset_id]
        except KeyError:
            raise FederationError(
                f"dataset {dataset_id!r} is not federated"
            ) from None

    def placements(self) -> List[Placement]:
        """Every federated placement, registration order."""
        return list(self._placements.values())

    def home(self, dataset_id: str) -> str:
        """Home site of *dataset_id*."""
        return self.placement(dataset_id).home

    def sites_with_copy(self, dataset_id: str) -> List[str]:
        """Sites currently holding a whole copy, in site order.

        Includes the home site (resident by construction) and every site
        whose replica manager recorded a migrated/fetched whole file.
        """
        out: List[str] = []
        for name, site in self.federation.sites.items():
            try:
                location = site.locator.locate(dataset_id)
            except LocatorError:
                continue
            if site.replicas.has_whole(location):
                out.append(name)
        return out

    def copy_count(self, dataset_id: str) -> int:
        """Whole copies currently resident across the federation."""
        return len(self.sites_with_copy(dataset_id))

    def __len__(self) -> int:
        return len(self._placements)
