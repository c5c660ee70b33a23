"""Locator Service: dataset id → physical location + splitter endpoint.

"This dataset must be submitted to the locator service that will resolve
the location of the dataset from the dataset identifier.  The location
could be a URL to an FTP server or a set of contiguous records in a
database server.  In addition to the location of the dataset, the locator
service returns the location of the splitter service" (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


class LocatorError(Exception):
    """Raised when a dataset id cannot be resolved."""


@dataclass(frozen=True)
class DatasetLocation:
    """Where a dataset physically lives and how to split it.

    Attributes
    ----------
    dataset_id:
        The id that was resolved.
    kind:
        ``"gridftp"`` (file on a storage element) or ``"database"``
        (contiguous records in a DB server) — both forms named in §3.4.
    host:
        Storage host name on the network.
    path:
        File path or table/range locator on that host.
    size_mb:
        Physical size (drives transfer times).
    n_events:
        Record count.
    splitter_host:
        Host running the splitter for this dataset (usually the SE).
    origin_host:
        Where the file originally lives when it must first be fetched to
        the SE (e.g. an external archive across the WAN); ``None`` when
        already resident.
    """

    dataset_id: str
    kind: str
    host: str
    path: str
    size_mb: float
    n_events: int
    splitter_host: str
    origin_host: Optional[str] = None


class LocatorService:
    """Resolves dataset identifiers to :class:`DatasetLocation` records.

    A location is registered once and never changes, so nothing cut from
    it (a split part, a cached replica) can go stale.
    """

    def __init__(self) -> None:
        self._locations: Dict[str, DatasetLocation] = {}

    def add_location(self, location: DatasetLocation) -> None:
        """Register where a dataset lives (one location per id)."""
        if location.kind not in ("gridftp", "database"):
            raise LocatorError(f"unknown location kind {location.kind!r}")
        if location.dataset_id in self._locations:
            raise LocatorError(
                f"dataset {location.dataset_id!r} already has a location"
            )
        self._locations[location.dataset_id] = location

    def locate(self, dataset_id: str) -> DatasetLocation:
        """Resolve *dataset_id*; raises :class:`LocatorError` if unknown."""
        try:
            return self._locations[dataset_id]
        except KeyError:
            raise LocatorError(
                f"no location registered for dataset {dataset_id!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._locations)
