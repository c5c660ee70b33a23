"""Replica catalog: logical dataset objects → physical copies.

The catalog maps *logical keys* — a whole dataset file or one split part —
to the hosts that hold a physical copy (the storage element, or a worker
node's staging cache).  A dataset id is registered once and its location
never changes (:class:`~repro.services.locator.LocatorService`), so a
copy can go missing (eviction, node failure) but never stale.

Part keys embed the full split geometry (strategy, part count, event
range), because a cached part is only reusable by a session that would
split the dataset identically.  A 4-way part is useless to an 8-way
session — the keys simply never match.

Invalidation removes the record *and* fires the registered hooks, which
is how worker caches, metrics, and the resilience layer stay coherent:
the catalog is the single source of truth for "who holds what", and a
replica that is not in the catalog is never served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


class ReplicaError(Exception):
    """Raised on invalid replica-catalog operations."""


@dataclass
class Replica:
    """One physical copy of a logical object on one host.

    Attributes
    ----------
    key:
        Logical object key (whole-file or part key).
    dataset_id:
        The dataset the object belongs to.
    host:
        Network host holding the copy (``"se"`` or a worker name).
    size_mb:
        Physical size of the copy.
    registered_at:
        Simulated time of registration.
    valid:
        Flipped to ``False`` on invalidation; invalid replicas are never
        returned by lookups (kept only on the hook's view of the event).
    """

    key: str
    dataset_id: str
    host: str
    size_mb: float
    registered_at: float
    valid: bool = True


#: Signature of invalidation hooks: ``hook(replica, reason)``.
InvalidationHook = Callable[[Replica, str], None]


class ReplicaCatalog:
    """Registry of dataset/part replicas with invalidation hooks."""

    def __init__(self) -> None:
        #: logical key -> host -> replica record.
        self._replicas: Dict[str, Dict[str, Replica]] = {}
        #: dataset id -> keys ever registered for it (placement affinity).
        self._dataset_keys: Dict[str, set] = {}
        self._hooks: List[InvalidationHook] = []
        #: Monotonic counters (for tests/diagnostics).
        self.invalidations = 0
        self.registrations = 0

    # -- keys --------------------------------------------------------------
    def whole_key(self, dataset_id: str) -> str:
        """Logical key of the whole dataset file."""
        return f"{dataset_id}/whole"

    def part_key(
        self,
        dataset_id: str,
        strategy: str,
        n_parts: int,
        part_index: int,
        start_event: int,
        stop_event: int,
    ) -> str:
        """Logical key of one split part.

        The key pins the whole split geometry: parts cut under a different
        strategy or fan-out never collide.
        """
        return (
            f"{dataset_id}/{strategy}/{n_parts}"
            f"/{part_index}:{start_event}-{stop_event}"
        )

    # -- registration ------------------------------------------------------
    def register(
        self,
        key: str,
        dataset_id: str,
        host: str,
        size_mb: float,
        now: float = 0.0,
    ) -> Replica:
        """Record that *host* holds a copy of *key* (idempotent refresh)."""
        if size_mb < 0:
            raise ReplicaError("size_mb must be >= 0")
        replica = Replica(
            key=key,
            dataset_id=dataset_id,
            host=host,
            size_mb=size_mb,
            registered_at=now,
        )
        self._replicas.setdefault(key, {})[host] = replica
        self._dataset_keys.setdefault(dataset_id, set()).add(key)
        self.registrations += 1
        return replica

    def unregister(self, key: str, host: str, reason: str = "eviction") -> bool:
        """Drop one replica record (cache eviction); fires the hooks."""
        holders = self._replicas.get(key)
        if not holders or host not in holders:
            return False
        replica = holders.pop(host)
        if not holders:
            self._replicas.pop(key, None)
        replica.valid = False
        self.invalidations += 1
        for hook in self._hooks:
            hook(replica, reason)
        return True

    # -- lookup ------------------------------------------------------------
    def holders(self, key: str) -> List[Replica]:
        """All valid replicas of *key* (possibly empty)."""
        return [r for r in self._replicas.get(key, {}).values() if r.valid]

    def has(self, key: str, host: str) -> bool:
        """Whether *host* holds a valid replica of *key*."""
        replica = self._replicas.get(key, {}).get(host)
        return replica is not None and replica.valid

    def total_mb(self) -> float:
        """Total MB of all valid replicas (federation byte-pressure input)."""
        return sum(
            replica.size_mb
            for holders in self._replicas.values()
            for replica in holders.values()
            if replica.valid
        )

    def hosts_with_dataset(self, dataset_id: str) -> Dict[str, float]:
        """host -> cached MB of the dataset.

        Feeds data-affinity placement: workers already holding parts of the
        dataset rank first when engines are dispatched.
        """
        totals: Dict[str, float] = {}
        for key in self._dataset_keys.get(dataset_id, ()):  # pragma: no branch
            for replica in self._replicas.get(key, {}).values():
                if replica.valid:
                    totals[replica.host] = (
                        totals.get(replica.host, 0.0) + replica.size_mb
                    )
        return totals

    # -- invalidation ------------------------------------------------------
    def add_invalidation_hook(self, hook: InvalidationHook) -> None:
        """Call *hook(replica, reason)* whenever a replica is invalidated."""
        self._hooks.append(hook)

    def invalidate_host(self, host: str, reason: str = "node-failure") -> int:
        """Invalidate every replica on *host* (node died / disk lost)."""
        count = 0
        for key in list(self._replicas):
            if host in self._replicas.get(key, {}):
                if self.unregister(key, host, reason=reason):
                    count += 1
        return count

    def __len__(self) -> int:
        return sum(len(holders) for holders in self._replicas.values())
