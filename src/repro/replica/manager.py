"""Replica manager: the facade the session service stages through.

Combines the :class:`~repro.replica.catalog.ReplicaCatalog` (logical →
physical mapping), one :class:`~repro.replica.cache.NodeCache` per worker
(residency, LRU/TTL, pins), and the
:class:`~repro.replica.selector.ReplicaSelector` (network-cost source
choice) behind one API:

* classify each part of an upcoming stage as **local** (the assigned
  worker already caches it), **peer** (another worker's cache can serve
  it point-to-point), **se** (the part file exists on the storage element
  from an earlier split), or **missing** (must be split/queried first);
* *align* the session's engine references so workers holding cached
  parts are assigned exactly those parts — a cached part is only a local
  hit if the part index lands on its holder;
* record new copies (SE whole file, SE part files, worker parts) and pin
  worker parts for the staging session;
* invalidate on node failure and dataset re-registration, keeping the
  worker caches and the catalog mutually consistent.

Consistency invariant: every cache entry has a catalog record and vice
versa (for worker hosts).  Cache evictions unregister the replica;
catalog invalidations drop the cache entry; both directions are
re-entrant-safe because the second removal finds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.grid.network import Network
from repro.grid.nodes import StorageElement, WorkerNode
from repro.obs import NULL_OBS, Observability
from repro.replica.cache import NodeCache
from repro.replica.catalog import Replica, ReplicaCatalog
from repro.replica.selector import ReplicaSelector
from repro.services.locator import DatasetLocation
from repro.services.splitter import PartDescriptor


@dataclass
class PartSource:
    """Where one part of an upcoming stage will come from.

    ``kind`` is one of ``"local"`` (already on the assigned worker),
    ``"peer"`` (fetched from another worker's cache), ``"se"`` (part file
    resident on the storage element, scatter without a split pass) or
    ``"missing"`` (must be produced by a split/range query first).
    """

    part: PartDescriptor
    key: str
    kind: str
    source: Optional[str] = None

    @property
    def worker(self) -> str:
        return self.part.worker

    @property
    def size_mb(self) -> float:
        return self.part.size_mb


@dataclass
class StagePlan:
    """Classified movement plan for one dataset stage."""

    dataset_id: str
    sources: List[PartSource] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[PartSource]:
        return [s for s in self.sources if s.kind == kind]

    @property
    def local(self) -> List[PartSource]:
        return self.of_kind("local")

    @property
    def peer(self) -> List[PartSource]:
        return self.of_kind("peer")

    @property
    def se(self) -> List[PartSource]:
        return self.of_kind("se")

    @property
    def missing(self) -> List[PartSource]:
        return self.of_kind("missing")

    @property
    def fully_cold(self) -> bool:
        """No reusable copy anywhere: every part must be produced."""
        return len(self.missing) == len(self.sources)


class ReplicaManager:
    """Site-wide replica state: catalog + per-worker caches + selector.

    Parameters
    ----------
    env:
        Simulation environment (supplies timestamps for LRU/TTL).
    network:
        Topology for source-cost estimation.
    storage:
        The storage element (its host name anchors SE replicas).
    workers:
        Worker nodes that get staging caches.
    capacity_mb:
        Per-worker cache budget (``None`` = unlimited).
    ttl_s:
        Per-entry idle time-to-live (``None`` = no expiry).
    se_disk_mbps:
        SE spindle rate, for the selector's backlog term.
    """

    def __init__(
        self,
        env,
        network: Network,
        storage: StorageElement,
        workers: Sequence[WorkerNode],
        capacity_mb: Optional[float] = None,
        ttl_s: Optional[float] = None,
        se_disk_mbps: float = 10.24,
        obs: Optional[Observability] = None,
    ) -> None:
        self.env = env
        self.storage = storage
        self.obs = obs or NULL_OBS
        self.catalog = ReplicaCatalog()
        self.selector = ReplicaSelector(network, storage.name, se_disk_mbps)
        self._workers: Dict[str, WorkerNode] = {w.name: w for w in workers}
        self.caches: Dict[str, NodeCache] = {
            w.name: NodeCache(
                w.name, capacity_mb, ttl_s, on_evict=self._on_evict
            )
            for w in workers
        }
        self.catalog.add_invalidation_hook(self._on_invalidate)
        metrics = self.obs.metrics
        self._hits = metrics.counter(
            "replica_stage_hits_total",
            "Parts served from a replica during staging, by level "
            "(local cache, peer cache, SE part file, whole file)",
        )
        self._misses = metrics.counter(
            "replica_stage_misses_total",
            "Parts with no reusable replica (produced by split/query)",
        )
        self._saved = metrics.counter(
            "replica_bytes_saved_mb_total",
            "Payload MB not re-transferred thanks to replicas",
        )
        self._evicted = metrics.counter(
            "replica_cache_evictions_total",
            "Worker-cache entries dropped, by reason",
        )
        self._invalidated = metrics.counter(
            "replica_invalidations_total",
            "Catalog replicas invalidated, by reason",
        )

    # -- catalog/cache consistency hooks -----------------------------------
    def _on_evict(self, node: str, key: str, reason: str) -> None:
        self._evicted.inc(reason=reason)
        self.obs.events.emit(
            "replica_evicted",
            message=f"{node} dropped {key} ({reason})",
            severity="debug",
            node=node,
            key=key,
            reason=reason,
        )
        self.catalog.unregister(key, node, reason=reason)

    def _on_invalidate(self, replica: Replica, reason: str) -> None:
        self._invalidated.inc(reason=reason)
        self.obs.events.emit(
            "replica_invalidated",
            message=f"{replica.host} replica {replica.key} ({reason})",
            severity="debug",
            host=replica.host,
            key=replica.key,
            reason=reason,
        )
        cache = self.caches.get(replica.host)
        if cache is not None:
            cache.remove(replica.key, reason=reason)

    # -- keys ---------------------------------------------------------------
    def whole_key(self, dataset_id: str) -> str:
        return self.catalog.whole_key(dataset_id)

    def part_keys(
        self,
        dataset_id: str,
        strategy: str,
        parts: Sequence[PartDescriptor],
    ) -> List[str]:
        """Logical keys for a concrete split geometry (worker-independent)."""
        n = len(parts)
        return [
            self.catalog.part_key(
                dataset_id, strategy, n, p.part_index, p.start_event, p.stop_event
            )
            for p in parts
        ]

    # -- whole-file replicas -------------------------------------------------
    def has_whole(self, location: DatasetLocation) -> bool:
        """Whether the whole dataset file is already on the SE.

        Datasets registered without an ``origin_host`` are SE-resident by
        construction; fetched datasets count only once the fetch was
        recorded via :meth:`record_whole`.
        """
        if location.origin_host is None:
            return True
        return self.catalog.has(
            self.whole_key(location.dataset_id), self.storage.name
        )

    def record_whole(self, location: DatasetLocation) -> None:
        """Record the SE copy of the whole file (after a WAN fetch)."""
        self.catalog.register(
            self.whole_key(location.dataset_id),
            location.dataset_id,
            self.storage.name,
            location.size_mb,
            now=self.env.now,
        )

    def forget_whole(
        self, dataset_id: str, reason: str = "evicted"
    ) -> bool:
        """Drop the SE whole-file copy (federation byte-pressure eviction).

        Only the whole-file replica goes; split part files and worker
        caches survive (they serve same-geometry restages until the next
        generation bump).  Returns whether a copy was actually dropped.
        Datasets resident by construction (no ``origin_host``) have no
        whole-file record and return ``False`` — the home copy cannot be
        evicted.
        """
        key = self.whole_key(dataset_id)
        if not self.catalog.has(key, self.storage.name):
            return False
        self.catalog.unregister(key, self.storage.name, reason=reason)
        return True

    def resident_mb(self) -> float:
        """Total MB of valid replicas this site holds (SE + worker caches)."""
        return self.catalog.total_mb()

    # -- residency queries ----------------------------------------------------
    def worker_has(self, worker: str, key: str) -> bool:
        """Fresh cache hit on a healthy worker (TTL enforced here)."""
        node = self._workers.get(worker)
        if node is None or node.failed or node.link_down:
            return False
        cache = self.caches.get(worker)
        return cache is not None and cache.has(key, self.env.now)

    def se_has_part(self, key: str) -> bool:
        return self.catalog.has(key, self.storage.name)

    # -- reference alignment ---------------------------------------------------
    def align_references(self, references: Sequence, keys: Sequence[str]):
        """Permute engine references so cached parts land on their holders.

        ``references`` are the session's
        :class:`~repro.services.registry.EngineReference` objects in
        current part order; ``keys`` the part keys for the same geometry.
        Each part index greedily claims a reference whose worker caches
        that part; leftover references fill the remaining slots in their
        original order, so an all-cold stage is a no-op permutation.
        """
        remaining = list(references)
        aligned: List = [None] * len(keys)
        for index, key in enumerate(keys):
            for ref in remaining:
                if self.worker_has(ref.worker, key):
                    aligned[index] = ref
                    remaining.remove(ref)
                    break
        for index in range(len(aligned)):
            if aligned[index] is None:
                aligned[index] = remaining.pop(0)
        return aligned

    # -- stage planning ---------------------------------------------------------
    def plan_sources(
        self,
        location: DatasetLocation,
        strategy: str,
        parts: Sequence[PartDescriptor],
        keys: Optional[Sequence[str]] = None,
    ) -> StagePlan:
        """Classify every part as local / peer / se / missing.

        Peer-vs-SE choice is cost-based: the selector charges the SE the
        serial spindle backlog of parts already planned from it, so once
        the spindle queue builds up a peer cache becomes the cheaper
        source — peer-to-peer fetches absorb exactly the overflow.
        """
        if keys is None:
            keys = self.part_keys(location.dataset_id, strategy, parts)
        plan = StagePlan(dataset_id=location.dataset_id)
        queued_se_mb = 0.0
        for part, key in zip(parts, keys):
            if self.worker_has(part.worker, key):
                plan.sources.append(PartSource(part, key, "local"))
                continue
            candidates = [
                replica.host
                for replica in self.catalog.holders(key)
                if replica.host != part.worker
                and (
                    replica.host == self.storage.name
                    or self.worker_has(replica.host, key)
                )
            ]
            choice = self.selector.choose(
                part.worker, part.size_mb, candidates, queued_se_mb
            )
            if choice is None:
                plan.sources.append(PartSource(part, key, "missing"))
                queued_se_mb += part.size_mb  # the split will scatter it
            elif choice.host == self.storage.name:
                plan.sources.append(
                    PartSource(part, key, "se", source=choice.host)
                )
                queued_se_mb += part.size_mb
            else:
                plan.sources.append(
                    PartSource(part, key, "peer", source=choice.host)
                )
        return plan

    def note_stage(self, plan: StagePlan, fetch_skipped_mb: float = 0.0) -> None:
        """Account a stage's hit/miss/bytes-saved metrics."""
        for kind in ("local", "peer", "se"):
            hits = plan.of_kind(kind)
            if hits:
                self._hits.inc(len(hits), level=kind)
        if plan.missing:
            self._misses.inc(len(plan.missing))
        saved = sum(s.size_mb for s in plan.local) + fetch_skipped_mb
        if saved:
            self._saved.inc(saved)
        if fetch_skipped_mb:
            self._hits.inc(level="whole")

    # -- registration -------------------------------------------------------
    def record_se_part(
        self, dataset_id: str, key: str, size_mb: float
    ) -> None:
        """Record a part file produced on the SE by a split pass."""
        self.catalog.register(
            key, dataset_id, self.storage.name, size_mb, now=self.env.now
        )

    def record_worker_part(
        self,
        dataset_id: str,
        key: str,
        worker: str,
        size_mb: float,
        session_id: Optional[str] = None,
    ) -> bool:
        """Admit a staged part into *worker*'s cache and the catalog.

        Returns ``False`` (nothing recorded) when the cache cannot make
        room — the part is still staged on disk for the session, it just
        will not be reusable afterwards.
        """
        cache = self.caches.get(worker)
        if cache is None:
            return False
        if not cache.put(key, size_mb, now=self.env.now, pin=session_id):
            return False
        self.catalog.register(
            key, dataset_id, worker, size_mb, now=self.env.now
        )
        return True

    def touch(self, worker: str, key: str, session_id: Optional[str] = None) -> None:
        """Refresh LRU order for a local hit and optionally pin it."""
        cache = self.caches.get(worker)
        if cache is None:
            return
        cache.touch(key, self.env.now)
        if session_id is not None:
            cache.pin(key, session_id)

    def unpin_session(self, session_id: str) -> None:
        """Release every pin the session holds (close / dataset switch)."""
        for cache in self.caches.values():
            cache.unpin_session(session_id)

    # -- invalidation --------------------------------------------------------
    def invalidate_host(self, host: str, reason: str = "node-failure") -> int:
        """Node died: drop every replica it held (pins do not protect)."""
        count = self.catalog.invalidate_host(host, reason=reason)
        cache = self.caches.get(host)
        if cache is not None:
            cache.clear(reason=reason)
        return count

    def dataset_updated(
        self, dataset_id: str, site_id: Optional[str] = None
    ) -> int:
        """Dataset re-registered: bump the generation, killing old replicas.

        ``site_id`` identifies the originating site when the update comes
        through a locator hook; a single-site manager invalidates its own
        copies either way, the parameter exists so federated catalogs can
        fan the same callback out per site without over-invalidating.
        """
        del site_id  # single-site manager: all local copies die regardless
        return self.catalog.bump_generation(dataset_id)

    # -- placement affinity ----------------------------------------------------
    def preferred_workers(self, dataset_id: str) -> List[str]:
        """Workers ranked by cached MB of *dataset_id* (most first).

        Feeds the scheduler's data-affinity placement: engines land on
        nodes that already hold parts of the dataset they will analyze.
        """
        totals = self.catalog.hosts_with_dataset(dataset_id)
        ranked = [
            (mb, host)
            for host, mb in totals.items()
            if host in self._workers
            and not self._workers[host].failed
        ]
        ranked.sort(key=lambda item: (-item[0], item[1]))
        return [host for _mb, host in ranked]
