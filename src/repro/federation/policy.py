"""Cross-site replication policy: pinning, migration, byte pressure.

Generalizes the single-site :class:`~repro.replica.selector.ReplicaSelector`
cost model across sites: candidate *source SEs* for a whole-dataset
migration are ranked by ``route latency + size / bottleneck bandwidth +
source spindle backlog`` over the shared WAN topology, exactly the
formula the selector applies to per-part sources inside one site.  The
winning source feeds an SE→SE third-party transfer
(:meth:`~repro.grid.transfer.GridFTPService.third_party`); failed or
partitioned sources fall through to the next-ranked candidate.

Byte pressure works on *migrated* copies only: home copies are resident
by construction and never evicted, and a dataset never drops below its
pinned copy count.  Eviction order is FIFO over migrations (oldest copy
goes first) — cheap, deterministic, and good enough for a simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.federation.errors import FederationError
from repro.grid.network import LinkDown
from repro.grid.transfer import TransferError
from repro.replica.selector import ReplicaSelector, SourceEstimate
from repro.sim import Event


class ReplicationPolicy:
    """Pin-N-copies placement with WAN-ranked sources and byte pressure.

    Parameters
    ----------
    federation:
        The owning :class:`~repro.federation.topology.Federation`.
    pin_copies:
        Default minimum whole-copy count per dataset (≥ 1).
    max_replica_mb:
        Global ceiling on whole-copy bytes across all sites; ``None``
        disables pressure-driven eviction.
    """

    def __init__(
        self,
        federation,
        pin_copies: int = 1,
        max_replica_mb: Optional[float] = None,
    ) -> None:
        if pin_copies < 1:
            raise FederationError("pin_copies must be >= 1")
        if max_replica_mb is not None and max_replica_mb <= 0:
            raise FederationError("max_replica_mb must be > 0")
        self.federation = federation
        self.default_pin = pin_copies
        self.max_replica_mb = max_replica_mb
        self._pins: Dict[str, int] = {}
        #: FIFO of (dataset_id, site) migrations — eviction order.
        self._migration_order: List[Tuple[str, str]] = []
        #: Migrations in flight, by (dataset_id, site) (volatile): each
        #: event fires when its migration ends, however it ends.
        self._migrating: Dict[Tuple[str, str], Event] = {}

    # -- pinning ---------------------------------------------------------
    def pin(self, dataset_id: str, copies: int) -> None:
        """Require at least *copies* whole copies of *dataset_id*."""
        if copies < 1:
            raise FederationError("pinned copy count must be >= 1")
        self.federation.catalog.placement(dataset_id)
        self._pins[dataset_id] = copies

    def pin_count(self, dataset_id: str) -> int:
        """Effective pinned copy count for *dataset_id*."""
        return self._pins.get(dataset_id, self.default_pin)

    # -- source ranking --------------------------------------------------
    def rank_sources(
        self, dataset_id: str, target: str
    ) -> List[Tuple[str, SourceEstimate]]:
        """Reachable source sites holding a whole copy, cheapest first.

        Each candidate SE is costed with its *own* selector so the
        spindle-backlog term charges the source's disk, mirroring the
        intra-site per-part model.  Partitioned sites and sites whose SE
        is unroutable are dropped; ties break by site name.
        """
        fed = self.federation
        target_site = fed.site(target)
        placement = fed.catalog.placement(dataset_id)
        dst_se = target_site.storage.name
        ranked: List[Tuple[float, str, SourceEstimate]] = []
        for name in fed.catalog.sites_with_copy(dataset_id):
            if name == target:
                continue
            src_site = fed.site(name)
            if src_site.partitioned:
                continue
            selector = ReplicaSelector(
                fed.network,
                src_site.storage.name,
                fed.calibration.se_disk_mbps,
            )
            est = selector.estimate(
                src_site.storage.name, dst_se, placement.size_mb
            )
            if est is None:
                continue
            ranked.append((est.total_s, name, est))
        ranked.sort(key=lambda item: (item[0], item[1]))
        return [(name, est) for _cost, name, est in ranked]

    # -- migration -------------------------------------------------------
    def ensure_resident(self, dataset_id: str, target: str):
        """Generator op: make *dataset_id* whole-resident at *target*.

        No-op (returns ``False``) when the copy is already there.
        Otherwise pulls it via SE→SE third-party transfer from the
        cheapest reachable source, falling through the ranking on
        transfer failure.  Returns ``True`` after a migration; raises
        :class:`FederationError` when no source can deliver.  Migration
        is single-flight per ``(dataset, target)``: a caller that finds
        one in flight waits for it and checks again, so it migrates
        itself only if that one failed.
        """
        fed = self.federation
        site = fed.site(target)
        key = (dataset_id, target)
        while True:
            if site.partitioned:
                raise FederationError(f"target site {target!r} is partitioned")
            location = site.locator.locate(dataset_id)
            if site.replicas.has_whole(location):
                return False
            running = self._migrating.get(key)
            if running is None:
                break
            yield running
        sources = self.rank_sources(dataset_id, target)
        if not sources:
            raise FederationError(
                f"no reachable whole copy of {dataset_id!r} for {target!r}"
            )
        self._migrating[key] = fed.env.event()
        try:
            last_error: Optional[BaseException] = None
            for source_name, _est in sources:
                src_site = fed.site(source_name)
                started = fed.env.now
                try:
                    yield site.ftp.third_party(
                        src_site.storage,
                        site.storage,
                        f"{dataset_id}.whole",
                        location.size_mb,
                    )
                except (TransferError, LinkDown) as exc:
                    last_error = exc
                    continue
                site.replicas.record_whole(location)
                self._migration_order.append(key)
                fed.note_migration(
                    dataset_id,
                    source_name,
                    target,
                    location.size_mb,
                    fed.env.now - started,
                )
                self._enforce_pressure()
                return True
            raise FederationError(
                f"every ranked source for {dataset_id!r} failed"
            ) from last_error
        finally:
            self._migrating.pop(key).succeed()

    def ensure_pinned(self, dataset_id: str, copies: Optional[int] = None):
        """Generator op: migrate until the pinned copy count is met.

        Each round targets the cheapest unpartitioned site without a
        copy (by best-source cost).  Returns the list of sites that
        received a new copy.
        """
        if copies is not None:
            self.pin(dataset_id, copies)
        want = self.pin_count(dataset_id)
        fed = self.federation
        placed: List[str] = []
        while True:
            have = fed.catalog.sites_with_copy(dataset_id)
            if len(have) >= want:
                return placed
            candidates: List[Tuple[float, str]] = []
            for name, site in fed.sites.items():
                if name in have or site.partitioned:
                    continue
                sources = self.rank_sources(dataset_id, name)
                if sources:
                    candidates.append((sources[0][1].total_s, name))
            if not candidates:
                raise FederationError(
                    f"cannot reach pin={want} for {dataset_id!r}: "
                    f"{len(have)} copies, no eligible target"
                )
            _cost, target = min(candidates)
            yield from self.ensure_resident(dataset_id, target)
            placed.append(target)

    # -- byte pressure ---------------------------------------------------
    def resident_whole_mb(self) -> float:
        """Total whole-copy bytes across the federation (all sites)."""
        fed = self.federation
        total = 0.0
        for placement in fed.catalog.placements():
            total += placement.size_mb * fed.catalog.copy_count(
                placement.dataset_id
            )
        return total

    def _enforce_pressure(self) -> List[Tuple[str, str]]:
        """Evict FIFO-oldest migrated copies until under the ceiling."""
        if self.max_replica_mb is None:
            return []
        fed = self.federation
        evicted: List[Tuple[str, str]] = []
        while self.resident_whole_mb() > self.max_replica_mb:
            victim = self._pick_victim()
            if victim is None:
                break
            dataset_id, site_name = victim
            self._migration_order.remove(victim)
            site = fed.site(site_name)
            size = fed.catalog.placement(dataset_id).size_mb
            if site.replicas.forget_whole(dataset_id, reason="byte-pressure"):
                fed.note_eviction(dataset_id, site_name, size)
                evicted.append(victim)
        return evicted

    def _pick_victim(self) -> Optional[Tuple[str, str]]:
        """Oldest migrated copy whose dataset stays at/above its pin."""
        for dataset_id, site_name in self._migration_order:
            if (
                self.federation.catalog.copy_count(dataset_id)
                > self.pin_count(dataset_id)
            ):
                return (dataset_id, site_name)
        return None
