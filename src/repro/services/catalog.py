"""Dataset Catalog Service: hierarchical metadata, browse, and search.

"The Catalog makes no assumptions about the type of metadata stored in the
catalog except that the metadata consists of key-value pairs stored in a
hierarchical tree" (§3.3).  Entries live at slash paths
(``/ilc/simulation/zh500``); what the client selects is a *dataset
reference* (id + metadata) — the actual data stays wherever the Locator
says it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.services.query import QueryError, parse_query


class CatalogError(Exception):
    """Raised on unknown paths/ids or conflicting registrations."""


@dataclass(frozen=True)
class DatasetEntry:
    """A catalog record: everything the client learns before staging.

    Attributes
    ----------
    dataset_id:
        Globally unique identifier (what the Locator resolves).
    path:
        Catalog tree position, e.g. ``/ilc/simulation/zh-500gev``.
    metadata:
        Free-form key/value pairs searched by the query language.
    size_mb:
        Nominal dataset size (drives the staging cost model).
    n_events:
        Number of records.
    content:
        Recipe for the deterministic content store (e.g. generator kind +
        seed), standing in for the physical files.
    """

    dataset_id: str
    path: str
    metadata: Dict[str, Any]
    size_mb: float
    n_events: int
    content: Dict[str, Any] = field(default_factory=dict)

    def search_document(self) -> Dict[str, Any]:
        """Metadata view used by queries (adds the intrinsic fields)."""
        doc = dict(self.metadata)
        doc.setdefault("dataset_id", self.dataset_id)
        doc.setdefault("size_mb", self.size_mb)
        doc.setdefault("n_events", self.n_events)
        return doc


class DatasetCatalogService:
    """In-memory hierarchical dataset catalog."""

    def __init__(self) -> None:
        self._by_id: Dict[str, DatasetEntry] = {}
        self._by_path: Dict[str, DatasetEntry] = {}

    # -- registration -------------------------------------------------------
    def register(self, entry: DatasetEntry) -> None:
        """Add an entry; ids and paths must be unique."""
        if not entry.path.startswith("/"):
            raise CatalogError(f"path must be absolute: {entry.path!r}")
        if entry.dataset_id in self._by_id:
            raise CatalogError(f"duplicate dataset id {entry.dataset_id!r}")
        if entry.path in self._by_path:
            raise CatalogError(f"duplicate catalog path {entry.path!r}")
        if entry.size_mb < 0 or entry.n_events < 0:
            raise CatalogError("size_mb and n_events must be >= 0")
        self._by_id[entry.dataset_id] = entry
        self._by_path[entry.path] = entry

    def __len__(self) -> int:
        return len(self._by_id)

    # -- browse ------------------------------------------------------------
    def browse(self, path: str = "/") -> Dict[str, List[str]]:
        """List sub-directories and datasets directly under *path*.

        Returns ``{"directories": [...], "datasets": [...]}`` with names
        relative to *path* (directories without trailing slash).
        """
        prefix = path.rstrip("/") + "/"
        if prefix == "//":
            prefix = "/"
        directories = set()
        datasets = []
        for entry_path in self._by_path:
            if not entry_path.startswith(prefix):
                continue
            remainder = entry_path[len(prefix):]
            if "/" in remainder:
                directories.add(remainder.split("/", 1)[0])
            else:
                datasets.append(remainder)
        if not directories and not datasets and prefix != "/":
            raise CatalogError(f"no catalog entries under {path!r}")
        return {
            "directories": sorted(directories),
            "datasets": sorted(datasets),
        }

    # -- lookup ------------------------------------------------------------
    def entry(self, dataset_id: str) -> DatasetEntry:
        """Fetch an entry by dataset id."""
        try:
            return self._by_id[dataset_id]
        except KeyError:
            raise CatalogError(f"unknown dataset id {dataset_id!r}") from None

    def entry_at(self, path: str) -> DatasetEntry:
        """Fetch an entry by catalog path."""
        try:
            return self._by_path[path]
        except KeyError:
            raise CatalogError(f"no dataset at {path!r}") from None

    # -- search ------------------------------------------------------------
    def search(self, query: str) -> List[DatasetEntry]:
        """Entries whose metadata satisfies *query*, in path order.

        Raises :class:`CatalogError` on malformed queries (wrapping
        :class:`~repro.services.query.QueryError`).
        """
        try:
            ast = parse_query(query)
        except QueryError as exc:
            raise CatalogError(f"bad query: {exc}") from exc
        return [
            entry
            for path, entry in sorted(self._by_path.items())
            if ast.evaluate(entry.search_document())
        ]
