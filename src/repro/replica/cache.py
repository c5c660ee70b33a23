"""Per-worker staging cache with capacity accounting, LRU, pinning.

Each worker node gets a :class:`NodeCache` tracking which dataset parts it
holds on local disk and how many megabytes they occupy.  Admission may
evict least-recently-used *unpinned* entries to make room; entries pinned
by an active session are never evicted for capacity, only invalidated
(node failure), because a running engine is reading them.

The cache is deliberately dumb about *what* the keys mean — the
:class:`~repro.replica.catalog.ReplicaCatalog` owns logical identity; the
cache only owns local residency, recency, and pins.  The ``on_evict``
callback is how the two stay consistent: every eviction unregisters the
corresponding catalog replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set


@dataclass
class CacheEntry:
    """One cached object on a worker's local disk."""

    key: str
    size_mb: float
    added_at: float
    last_used: float
    pins: Set[str] = field(default_factory=set)

    @property
    def pinned(self) -> bool:
        return bool(self.pins)


#: Signature of eviction callbacks: ``on_evict(node_name, key, reason)``.
EvictionCallback = Callable[[str, str, str], None]


class NodeCache:
    """LRU staging cache for one worker node.

    Parameters
    ----------
    name:
        Worker/node name (reported to the eviction callback).
    capacity_mb:
        Disk budget for cached parts.  ``None`` disables the capacity
        limit (explicit invalidation still applies).
    on_evict:
        Called as ``on_evict(name, key, reason)`` for every entry that
        leaves the cache for any reason other than an explicit
        ``remove(..., silent=True)``.
    """

    def __init__(
        self,
        name: str,
        capacity_mb: Optional[float] = None,
        on_evict: Optional[EvictionCallback] = None,
    ) -> None:
        self.name = name
        self.capacity_mb = capacity_mb
        self.on_evict = on_evict
        self._entries: Dict[str, CacheEntry] = {}
        self.evictions = 0

    # -- accounting --------------------------------------------------------
    @property
    def used_mb(self) -> float:
        return sum(e.size_mb for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        return list(self._entries)

    def entry(self, key: str) -> Optional[CacheEntry]:
        return self._entries.get(key)

    # -- lookup ------------------------------------------------------------
    def touch(self, key: str, now: float) -> bool:
        """Mark *key* as used now (refreshes its LRU order)."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.last_used = now
        return True

    # -- admission ---------------------------------------------------------
    def put(
        self,
        key: str,
        size_mb: float,
        now: float,
        pin: Optional[str] = None,
    ) -> bool:
        """Admit *key*; evict LRU unpinned entries to make room.

        Returns ``False`` (and caches nothing) when pinned residents leave
        too little head-room — the part is simply staged without caching.
        """
        existing = self._entries.get(key)
        if existing is not None:
            existing.last_used = now
            existing.size_mb = size_mb
            if pin is not None:
                existing.pins.add(pin)
            return True
        if self.capacity_mb is not None:
            if size_mb > self.capacity_mb:
                return False
            needed = self.used_mb + size_mb - self.capacity_mb
            if needed > 0 and not self._evict_lru(needed):
                return False
        entry = CacheEntry(key=key, size_mb=size_mb, added_at=now, last_used=now)
        if pin is not None:
            entry.pins.add(pin)
        self._entries[key] = entry
        return True

    def _evict_lru(self, needed_mb: float) -> bool:
        """Evict unpinned entries, least recently used first."""
        victims = sorted(
            (e for e in self._entries.values() if not e.pinned),
            key=lambda e: (e.last_used, e.key),
        )
        freeable = sum(e.size_mb for e in victims)
        if freeable < needed_mb:
            return False
        freed = 0.0
        for victim in victims:
            if freed >= needed_mb:
                break
            freed += victim.size_mb
            self._drop(victim.key, reason="capacity")
        return True

    # -- pinning -----------------------------------------------------------
    def pin(self, key: str, session_id: str) -> bool:
        """Pin *key* for *session_id* (no capacity eviction while pinned)."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.pins.add(session_id)
        return True

    def unpin_session(self, session_id: str) -> int:
        """Release every pin held by *session_id*; entries stay cached."""
        count = 0
        for entry in self._entries.values():
            if session_id in entry.pins:
                entry.pins.discard(session_id)
                count += 1
        return count

    # -- removal -----------------------------------------------------------
    def remove(self, key: str, reason: str = "invalidated") -> bool:
        """Forcibly drop *key* (overrides pins — invalidation, not LRU)."""
        if key not in self._entries:
            return False
        self._drop(key, reason=reason)
        return True

    def clear(self, reason: str = "invalidated") -> int:
        """Drop every entry (node failure wipes the staging area)."""
        keys = list(self._entries)
        for key in keys:
            self._drop(key, reason=reason)
        return len(keys)

    def _drop(self, key: str, reason: str) -> None:
        self._entries.pop(key)
        self.evictions += 1
        if self.on_evict is not None:
            self.on_evict(self.name, key, reason)
