"""Federated catalog: dataset→site placement over per-site replica state.

Wraps — never replaces — each site's locator/catalog/ReplicaCatalog
stack: a dataset registered through the federation gets a location record
at *every* site (the home site resident by construction, remote sites
pointing their ``origin_host`` at the home SE), and per-site replica
residency remains the property of each site's own
:class:`~repro.replica.manager.ReplicaManager`.  What the federation adds
is the cross-site view: which sites hold a whole copy right now and
which site is home.  A dataset is placed once and its locations never
change, so no site's copy can go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

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
    """Cross-site dataset placement over each site's replica state."""

    def __init__(self, federation) -> None:
        self.federation = federation
        self._placements: Dict[str, Placement] = {}

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
