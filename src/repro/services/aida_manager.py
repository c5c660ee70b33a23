"""AIDA Manager Service: collect, merge, and serve intermediate results.

"As soon as the analysis begins, the intermediate results from each
individual analysis engines are collected and merged at the Manager node by
a special manager service called the AIDA manager service.  A separate
plug-in on the JAS client constantly polls the AIDA manager" (§3.7).

Scalability (§2.5): with many engines the flat merge at one node becomes a
bottleneck; the paper prescribes "a sub-level of components that performs
the merging".  With ``fan_in=f`` the manager builds that sub-level for
real (see :mod:`repro.services.combiner`): engines are routed to leaf
**combiner** nodes of degree *f* which maintain their own incremental
partial trees and republish combined deltas upward, level by level, to
the root.  A poll re-folds only the dirty combiner subtrees; within one
level the combiners fold concurrently on the simulated clock, so
per-poll merge cost scales like ``f * ceil(log_f dirty)`` instead of
``dirty``.  ``bench_merge_tree.py`` measures this at 4-1024 engines and
checks the served tree stays exactly equal to the flat merge.

On top of the fan-in model, the manager merges **incrementally** (the
default): it keeps a deserialized tree per engine keyed by the engine's
snapshot sequence, accepts *delta* snapshots that carry only changed
objects on top of an acknowledged base sequence, and maintains a partial
merged tree in which only the paths touched since the last poll are
re-folded.  A poll therefore costs O(dirty engines), not
O(engines x tree size) — the ``merge_latency_incremental`` cost model
charges the simulated clock accordingly.  ``begin_run`` (rewind),
``discard_engine`` (failure recovery), and ``drop_session`` invalidate the
caches so the served tree stays bit-identical to a from-scratch flat merge
of the surviving latest snapshots (property-tested).

Correctness rules:

* the latest snapshot per engine wins (snapshots are cumulative);
* snapshots from an older ``run_id`` (pre-rewind) are discarded;
* a delta whose ``base_sequence`` does not match the cached sequence is
  rejected with ``"resync"`` so the engine re-publishes a full keyframe;
* merging is the exact AIDA merge, so the served tree equals a
  single-engine run over the concatenated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.aida.codec import copy_payload
from repro.aida.serial import from_dict as object_from_dict
from repro.aida.tree import ObjectTree
from repro.engine.engine import Snapshot
from repro.obs import NULL_OBS, Observability
from repro.resilience.faults import ServiceUnavailable
from repro.services.combiner import MergeTree, plan_groups
from repro.sim import Environment, Process


class MergeError(Exception):
    """Raised on invalid manager operations."""


@dataclass
class MergeProgress:
    """Progress summary returned alongside the merged tree."""

    session_id: str
    engines_reporting: int
    events_processed: int
    total_events: int
    final_engines: int
    run_id: int
    analysis_versions: List[int]
    merged_at: float
    #: Engines the session currently expects results from (set by the
    #: session service; maintained through recovery).  ``None`` when the
    #: session layer is not tracking membership.
    expected_engines: Optional[int] = None
    #: True while a failure recovery is re-dispatching orphaned partitions
    #: — results must not be treated as complete during that window.
    recovering: bool = False
    #: Monotonic merge generation: bumps whenever a merge folded dirty
    #: data.  Clients compare it against their per-client cursor to tell
    #: a fresh tree from a redundant re-poll (coalescing keeps replies
    #: bit-identical; the generation is how cursors stay aligned).
    merge_generation: int = 0

    @property
    def fraction_done(self) -> float:
        """Fraction of events processed (0 when unknown)."""
        if self.total_events <= 0:
            return 0.0
        return self.events_processed / self.total_events

    @property
    def complete(self) -> bool:
        """True when every expected engine delivered its final snapshot."""
        if self.recovering:
            return False
        if self.engines_reporting <= 0:
            return False
        if (
            self.expected_engines is not None
            and self.engines_reporting < self.expected_engines
        ):
            return False
        return self.final_engines == self.engines_reporting


class AIDAManagerService:
    """Stores per-engine snapshots and serves merged results.

    Parameters
    ----------
    env:
        Simulation environment (merge latency is charged on its clock).
    merge_cost_per_tree:
        Seconds to merge one snapshot tree into an accumulator.
    fan_in:
        Combiner tree degree; ``None`` = flat single-node merge (§2.5's
        bottleneck case).  With a fan-in and incremental merging on, the
        session layer wires a real combiner tier via
        :meth:`configure_tier` and polls re-fold dirty subtrees only.
    grouping:
        Leaf-combiner grouping policy: ``"chunk"`` (contiguous runs of
        the sorted engine ids — preserves the flat fold order exactly)
        or ``"worker"`` (cluster engines sharing a worker first).
    incremental:
        When True (default), cache deserialized per-engine trees, accept
        delta snapshots, and re-merge only dirty paths per poll.  When
        False, every poll re-deserializes and re-merges every stored
        snapshot (the seed behaviour) and delta snapshots are refused
        with ``"resync"``.
    coalesce:
        When True (default), concurrent polls of the same session share
        one in-flight merge: the first poll (the *leader*) runs the
        merge; every poll arriving while it is in flight joins it and is
        served the leader's result.  Because the leader re-reads dirty
        state after its latency elapses and the fold order is fixed, the
        shared tree is bit-identical to what each joiner's own merge
        would have produced.  Per-client cursors (see ``poll_cursor``)
        track which merge generation each client last saw.
    coalesce_window_s:
        Floor on the leader's in-flight duration: with a window of *w*,
        polls landing within *w* seconds of the leader join it even when
        nothing is dirty (latency would otherwise be 0 and leave no
        window to join).  0 (default) preserves the uncoalesced timing
        exactly for sequential pollers.
    """

    def __init__(
        self,
        env: Environment,
        merge_cost_per_tree: float = 0.05,
        fan_in: Optional[int] = None,
        obs: Optional[Observability] = None,
        incremental: bool = True,
        coalesce: bool = True,
        coalesce_window_s: float = 0.0,
        grouping: str = "chunk",
    ) -> None:
        if merge_cost_per_tree < 0:
            raise ValueError("merge_cost_per_tree must be >= 0")
        if fan_in is not None and fan_in < 2:
            raise ValueError("fan_in must be >= 2")
        if coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        if grouping not in ("chunk", "worker"):
            raise ValueError(f"unknown grouping policy {grouping!r}")
        self.env = env
        self.obs = obs or NULL_OBS
        self._snapshot_metric = self.obs.metrics.counter(
            "aida_snapshots_total",
            "Engine snapshots accepted by the AIDA manager",
        )
        self._dropped_metric = self.obs.metrics.counter(
            "aida_snapshots_dropped_total",
            "Engine snapshots dropped by the AIDA manager, by reason",
        )
        self._merge_metric = self.obs.metrics.histogram(
            "aida_merge_seconds", "AIDA merge latency (simulated seconds)"
        )
        self._cache_hit_metric = self.obs.metrics.counter(
            "aida_merge_cache_hits_total",
            "Engine trees served from the incremental merge cache",
        )
        self._cache_miss_metric = self.obs.metrics.counter(
            "aida_merge_cache_misses_total",
            "Engine trees re-merged because their snapshot advanced",
        )
        self._dirty_engines_metric = self.obs.metrics.histogram(
            "aida_merge_dirty_engines",
            "Dirty engines per incremental merge",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._poll_metric = self.obs.metrics.counter(
            "aida_polls_total", "Merged-result polls served"
        )
        self._coalesced_metric = self.obs.metrics.counter(
            "aida_polls_coalesced_total",
            "Polls served by joining another client's in-flight merge",
        )
        self._redundant_metric = self.obs.metrics.counter(
            "aida_polls_redundant_total",
            "Polls that re-served a generation the client had already seen",
        )
        self._tier_depth_metric = self.obs.metrics.gauge(
            "aida_tier_depth",
            "Combiner tier depth per session (levels, 0 = flat)",
        )
        self._combiner_folds_metric = self.obs.metrics.histogram(
            "aida_combiner_folds",
            "Max concurrent folds per combiner level per poll",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64),
        )
        self._combiner_crash_metric = self.obs.metrics.counter(
            "aida_combiner_crashes_total",
            "Combiner nodes crashed (volatile partial state lost)",
        )
        self._combiner_retired_metric = self.obs.metrics.counter(
            "aida_combiner_retired_total",
            "Leaf combiners retired with engines re-parented",
        )
        self.merge_cost_per_tree = merge_cost_per_tree
        self.fan_in = fan_in
        self.grouping = grouping
        self.incremental = incremental
        self.coalesce = coalesce
        self.coalesce_window_s = coalesce_window_s
        self._snapshots: Dict[str, Dict[str, Snapshot]] = {}
        self._run_ids: Dict[str, int] = {}
        #: Engines banned per session: contributions from a dead engine's
        #: epoch are discarded and any late (zombie) submissions dropped,
        #: so re-processed partitions are never double-counted.
        self._banned: Dict[str, set] = {}
        #: Expected engine count per session (None = untracked).
        self._expected: Dict[str, int] = {}
        #: Sessions currently mid-recovery.
        self._recovering: Dict[str, bool] = {}
        #: (session_id, n_trees, latency) per merge, for the benchmarks.
        self.merge_log: List[tuple] = []
        # -- incremental merge caches --
        #: Per session: engine -> (snapshot sequence, deserialized tree).
        self._engine_trees: Dict[str, Dict[str, Tuple[int, ObjectTree]]] = {}
        #: Object paths whose merged value is stale.
        self._dirty_paths: Dict[str, Set[str]] = {}
        #: Engines whose snapshot advanced since the last poll (cost model).
        self._dirty_engines: Dict[str, Set[str]] = {}
        #: Partial merged tree per session (only dirty paths re-folded).
        self._merged: Dict[str, ObjectTree] = {}
        #: Combiner tier per session (only with ``fan_in`` + incremental);
        #: when present it replaces the flat caches above for that session.
        self._tiers: Dict[str, MergeTree] = {}
        # -- poll coalescing --
        #: In-flight merge per session: joiners wait on ``event`` and are
        #: served the leader's ``(tree_dict, progress)`` result.
        self._inflight: Dict[str, dict] = {}
        #: Monotonic merge generation per session (bumps on dirty folds).
        self._generations: Dict[str, int] = {}
        #: Per session: client_id -> last merge generation served to it.
        self._cursors: Dict[str, Dict[str, int]] = {}
        #: True between a service crash and its restart+recovery.
        self._down = False
        #: Closed sessions: late (zombie) submissions must not resurrect
        #: per-session state that ``drop_session`` already released.
        self._dropped: Set[str] = set()

    # -- ingestion ----------------------------------------------------------
    def submit_snapshot(self, session_id: str, snapshot: Snapshot) -> str:
        """Accept an engine snapshot (latest-per-engine, current run only).

        Returns ``"accepted"``, ``"dropped"`` (banned engine, stale run, or
        out-of-order duplicate), or ``"resync"`` — the snapshot was a delta
        the manager cannot apply (sequence gap, or incremental merging is
        off) and the engine must publish a full keyframe.
        """
        if self._down:
            # Dropped-connection semantics: the submit never reaches the
            # crashed manager; the engine resends on its next cycle.
            return "unavailable"
        if session_id in self._dropped:
            # Zombie submission after close: must not recreate the maps
            # drop_session released.
            self._dropped_metric.inc(reason="closed")
            return "dropped"
        if snapshot.engine_id in self._banned.get(session_id, ()):
            # Late submission from a dead engine's epoch.
            self._dropped_metric.inc(reason="banned")
            return "dropped"
        current_run = self._run_ids.get(session_id, 0)
        if snapshot.run_id > current_run:
            # A rewind happened: everything older is now invalid.
            self._run_ids[session_id] = snapshot.run_id
            self._snapshots[session_id] = {}
            self._invalidate_session_caches(session_id)
            current_run = snapshot.run_id
        elif snapshot.run_id < current_run:
            # Stale snapshot from before the rewind.
            self._dropped_metric.inc(reason="stale_run")
            return "dropped"
        session = self._snapshots.setdefault(session_id, {})
        existing = session.get(snapshot.engine_id)
        if existing is not None and existing.sequence >= snapshot.sequence:
            self._dropped_metric.inc(reason="out_of_order")
            return "dropped"
        # Freeze the payload: the submitter keeps a live reference to the
        # tree dict, and a later in-place mutation must not be able to
        # reach into stored snapshots (or the merged result).
        snapshot = replace(snapshot, tree=copy_payload(snapshot.tree))
        status = self._ingest_tree(session_id, snapshot)
        if status != "accepted":
            self._dropped_metric.inc(reason="gap")
            return status
        session[snapshot.engine_id] = snapshot
        self._snapshot_metric.inc()
        # Straggler detection watches the cumulative progress counter on
        # every accepted snapshot (events/s, snapshot lag per engine).
        self.obs.anomaly.record_snapshot(
            session_id, snapshot.engine_id, snapshot.events_processed
        )
        return "accepted"

    # -- combiner tier ------------------------------------------------------
    def configure_tier(
        self,
        session_id: str,
        engine_ids,
        workers: Optional[Dict[str, str]] = None,
    ) -> Optional[MergeTree]:
        """Build the session's combiner tier (no-op without a fan-in).

        Called by the session layer once engine membership is known;
        idempotent (an existing tier is kept — late calls after spares
        join must not rebuild the topology under in-flight deltas).  Any
        state already ingested through the flat caches migrates into the
        tier, marked dirty so the next poll re-folds it.
        """
        if not self.incremental or self.fan_in is None:
            return None
        if self._down or session_id in self._dropped:
            return None
        tier = self._tiers.get(session_id)
        if tier is not None:
            return tier
        ids = sorted(set(engine_ids))
        if not ids:
            return None
        groups = plan_groups(ids, self.fan_in, self.grouping, workers)
        tier = MergeTree(session_id, self.fan_in, groups)
        self._tiers[session_id] = tier
        for engine_id, (seq, tree) in self._engine_trees.pop(
            session_id, {}
        ).items():
            tier.restore_engine(engine_id, seq, tree)
        self._dirty_paths.pop(session_id, None)
        dirty = self._dirty_engines.pop(session_id, None)
        if dirty:
            tier.dirty_engines.update(dirty)
        self._merged.pop(session_id, None)
        self._tier_depth_metric.set(tier.depth, session=session_id)
        self.obs.events.emit(
            "tier_configured",
            message=(
                f"{session_id}: {tier.n_combiners} combiners over "
                f"{len(ids)} engines, depth {tier.depth}"
            ),
            session=session_id,
            engines=len(ids),
            combiners=tier.n_combiners,
            depth=tier.depth,
            fan_in=self.fan_in,
            grouping=self.grouping,
        )
        return tier

    def tier(self, session_id: str) -> Optional[MergeTree]:
        """The session's combiner tier, if one is configured."""
        return self._tiers.get(session_id)

    def combiner_of(self, session_id: str, engine_id: str) -> Optional[str]:
        """Leaf combiner *engine_id* publishes through (None = flat)."""
        tier = self._tiers.get(session_id)
        if tier is None:
            return None
        return tier.combiner_of(engine_id)

    def crash_combiner(self, session_id: str, combiner_id: str) -> List[str]:
        """Kill one combiner node; returns the engines needing resync."""
        tier = self._tiers.get(session_id)
        if tier is None:
            raise MergeError(f"session {session_id!r} has no combiner tier")
        affected = tier.crash_combiner(combiner_id)
        self._combiner_crash_metric.inc()
        self.obs.events.emit(
            "combiner_crash",
            message=f"{combiner_id} lost; {len(affected)} engines to resync",
            severity="warning",
            session=session_id,
            combiner=combiner_id,
            engines=len(affected),
        )
        return affected

    def retire_combiner(self, session_id: str, combiner_id: str) -> str:
        """Retire a leaf combiner, re-parenting its engines; returns the
        absorbing leaf's id."""
        tier = self._tiers.get(session_id)
        if tier is None:
            raise MergeError(f"session {session_id!r} has no combiner tier")
        target = tier.retire_combiner(combiner_id)
        self._combiner_retired_metric.inc()
        self._tier_depth_metric.set(tier.depth, session=session_id)
        self.obs.events.emit(
            "combiner_retired",
            message=f"{combiner_id} retired; engines re-parented to {target}",
            session=session_id,
            combiner=combiner_id,
            target=target,
        )
        return target

    def _ingest_tree(self, session_id: str, snapshot: Snapshot) -> str:
        """Fold an otherwise-valid snapshot into the per-engine tree cache."""
        if snapshot.base_sequence != 0 and not self.incremental:
            return "resync"  # cannot apply a delta without the cache
        if not self.incremental:
            return "accepted"
        tier = self._tiers.get(session_id)
        if tier is not None:
            # Tiered path: the leaf combiner owns the engine cache.
            return tier.ingest(snapshot)
        trees = self._engine_trees.setdefault(session_id, {})
        dirty_paths = self._dirty_paths.setdefault(session_id, set())
        dirty_engines = self._dirty_engines.setdefault(session_id, set())
        cached = trees.get(snapshot.engine_id)
        if snapshot.base_sequence == 0:
            # Full keyframe: replace the cached tree outright.  Everything
            # it previously contributed and everything it now contributes
            # must be re-folded.
            new_tree = ObjectTree.from_dict(snapshot.tree)
            if cached is not None:
                dirty_paths.update(cached[1].paths())
            dirty_paths.update(new_tree.paths())
            trees[snapshot.engine_id] = (snapshot.sequence, new_tree)
            dirty_engines.add(snapshot.engine_id)
            return "accepted"
        if cached is None or cached[0] != snapshot.base_sequence:
            # Sequence gap (a snapshot was lost, or we never saw a
            # keyframe): the delta cannot be applied safely.
            return "resync"
        tree = cached[1]
        changed = snapshot.tree.get("objects", {})
        for path, obj_data in changed.items():
            if tree.exists(path):
                tree.remove(path)
            tree.put(path, object_from_dict(obj_data))
            dirty_paths.add(path)
        trees[snapshot.engine_id] = (snapshot.sequence, tree)
        if changed:
            dirty_engines.add(snapshot.engine_id)
        return "accepted"

    def begin_run(self, session_id: str, run_id: int) -> None:
        """Invalidate snapshots older than *run_id* (a rewind happened).

        Called by the session service the moment it fans a rewind out, so
        a client polling right after the rewind never sees the *previous*
        run's (complete) results as if they were the new run's.
        """
        current = self._run_ids.get(session_id, 0)
        if run_id > current:
            self._run_ids[session_id] = run_id
            self._snapshots[session_id] = {}
            self._invalidate_session_caches(session_id)

    def _invalidate_session_caches(self, session_id: str) -> None:
        """Drop every incremental cache for a session (rewind/close)."""
        self._engine_trees.pop(session_id, None)
        self._dirty_paths.pop(session_id, None)
        self._dirty_engines.pop(session_id, None)
        self._merged.pop(session_id, None)
        tier = self._tiers.get(session_id)
        if tier is not None:
            # Keep the topology (the engines are the same after a
            # rewind); drop every cached tree and partial.
            tier.reset()

    # -- failure recovery ---------------------------------------------------
    def discard_engine(self, session_id: str, engine_id: str) -> None:
        """Drop a dead engine's stored snapshots and ban future ones.

        The ban is what keeps merged histograms exactly correct under
        recovery: a hung or zombie engine may still submit snapshots for a
        partition that has been re-dispatched elsewhere, and those must
        never reach the merge.
        """
        if session_id in self._dropped:
            # A quarantine racing a close must not repopulate (leak) the
            # ban set / dirty maps for a session already released.
            return
        self._snapshots.get(session_id, {}).pop(engine_id, None)
        self._banned.setdefault(session_id, set()).add(engine_id)
        entry = self._engine_trees.get(session_id, {}).pop(engine_id, None)
        if entry is not None:
            # Every path it contributed must be re-folded without it.
            self._dirty_paths.setdefault(session_id, set()).update(
                entry[1].paths()
            )
            self._dirty_engines.setdefault(session_id, set()).add(engine_id)
        tier = self._tiers.get(session_id)
        if tier is not None:
            tier.discard_engine(engine_id)

    def banned_engines(self, session_id: str) -> set:
        """Engines whose contributions are discarded for this session."""
        return set(self._banned.get(session_id, ()))

    def set_expected_engines(self, session_id: str, count: int) -> None:
        """Declare how many engines the session expects results from."""
        if count < 0:
            raise MergeError("expected engine count must be >= 0")
        self._expected[session_id] = count

    def set_recovering(self, session_id: str, flag: bool) -> None:
        """Mark the session as (not) mid-recovery; gates ``complete``."""
        self._recovering[session_id] = bool(flag)

    def drop_session(self, session_id: str) -> None:
        """Forget a session's snapshots (session close); idempotent.

        The session id is tombstoned so late submissions or quarantines
        from zombie engines cannot resurrect the released maps.
        """
        self._snapshots.pop(session_id, None)
        self._run_ids.pop(session_id, None)
        self._banned.pop(session_id, None)
        self._expected.pop(session_id, None)
        self._recovering.pop(session_id, None)
        self._invalidate_session_caches(session_id)
        self._tiers.pop(session_id, None)
        self._inflight.pop(session_id, None)
        self._generations.pop(session_id, None)
        self._cursors.pop(session_id, None)
        self._dropped.add(session_id)

    def mark_dropped(self, session_id: str) -> None:
        """Re-tombstone a session known (from the journal) to be closed."""
        self._dropped.add(session_id)

    def session_cache_keys(self, session_id: str) -> List[str]:
        """Names of internal maps still holding state for *session_id*.

        Leak audit helper: after ``drop_session`` this must be empty, even
        for sessions that never produced a snapshot or closed abnormally.
        """
        maps = {
            "snapshots": self._snapshots,
            "run_ids": self._run_ids,
            "banned": self._banned,
            "expected": self._expected,
            "recovering": self._recovering,
            "engine_trees": self._engine_trees,
            "dirty_paths": self._dirty_paths,
            "dirty_engines": self._dirty_engines,
            "merged": self._merged,
            "tiers": self._tiers,
            "inflight": self._inflight,
            "generations": self._generations,
            "cursors": self._cursors,
        }
        return sorted(name for name, m in maps.items() if session_id in m)

    # -- service crash / recovery -------------------------------------------
    def crash(self) -> None:
        """The manager process dies: all volatile session state is lost."""
        self._snapshots.clear()
        self._run_ids.clear()
        self._banned.clear()
        self._expected.clear()
        self._recovering.clear()
        self._engine_trees.clear()
        self._dirty_paths.clear()
        self._dirty_engines.clear()
        self._merged.clear()
        self._tiers.clear()
        self._inflight.clear()
        self._generations.clear()
        self._cursors.clear()
        self._dropped.clear()
        self._down = True

    def restart(self) -> None:
        """Bring the endpoints back up (state restored separately)."""
        self._down = False

    def checkpoint_state(self, session_id: str) -> dict:
        """Serialize the session's merge state for a durable checkpoint.

        Each engine entry carries its *full* cached tree (stored
        snapshots may be deltas, which cannot be replayed without the
        base they were applied to).
        """
        snapshots = self._snapshots.get(session_id, {})
        trees = self._engine_trees.get(session_id, {})
        tier = self._tiers.get(session_id)
        engines = {}
        for engine_id, snap in snapshots.items():
            cached = trees.get(engine_id)
            if cached is None and tier is not None:
                cached = tier.engine_entry(engine_id)
            if cached is not None:
                tree_dict = cached[1].to_dict()
            else:
                # Non-incremental mode stores only full keyframes.
                tree_dict = snap.tree
            engines[engine_id] = {
                "sequence": snap.sequence,
                "events_processed": snap.events_processed,
                "total_events": snap.total_events,
                "analysis_version": snap.analysis_version,
                "run_id": snap.run_id,
                "final": snap.final,
                "tree": tree_dict,
            }
        state = {
            "run_id": self._run_ids.get(session_id, 0),
            "expected": self._expected.get(session_id),
            "banned": sorted(self._banned.get(session_id, ())),
            "engines": engines,
        }
        if tier is not None:
            state["tier_groups"] = tier.leaf_groups()
        return state

    def restore_state(self, session_id: str, state: dict) -> None:
        """Rebuild the merge cache from a checkpoint's merge state.

        Every restored path and engine starts dirty, so the first poll
        re-folds the merged tree from the restored engine trees — the
        same association order as a clean run, hence bit-identical.
        """
        self._run_ids[session_id] = state.get("run_id", 0)
        if state.get("expected") is not None:
            self._expected[session_id] = state["expected"]
        if state.get("banned"):
            self._banned[session_id] = set(state["banned"])
        tier: Optional[MergeTree] = None
        if self.incremental and self.fan_in is not None:
            groups = state.get("tier_groups")
            if groups is None:
                groups = plan_groups(
                    sorted(state.get("engines", {})), self.fan_in, "chunk"
                )
            groups = [g for g in groups if g]
            if groups:
                tier = MergeTree(session_id, self.fan_in, groups)
                self._tiers[session_id] = tier
                self._tier_depth_metric.set(tier.depth, session=session_id)
        snapshots: Dict[str, Snapshot] = {}
        trees: Dict[str, Tuple[int, ObjectTree]] = {}
        dirty_paths: Set[str] = set()
        for engine_id, entry in state.get("engines", {}).items():
            snapshots[engine_id] = Snapshot(
                engine_id=engine_id,
                sequence=entry["sequence"],
                events_processed=entry["events_processed"],
                total_events=entry["total_events"],
                analysis_version=entry["analysis_version"],
                run_id=entry["run_id"],
                tree=entry["tree"],
                final=entry.get("final", False),
            )
            if self.incremental:
                tree = ObjectTree.from_dict(entry["tree"])
                if tier is not None:
                    tier.restore_engine(engine_id, entry["sequence"], tree)
                else:
                    trees[engine_id] = (entry["sequence"], tree)
                    dirty_paths.update(tree.paths())
        self._snapshots[session_id] = snapshots
        if self.incremental and tier is None:
            self._engine_trees[session_id] = trees
            self._dirty_paths[session_id] = dirty_paths
            self._dirty_engines[session_id] = set(trees)
            self._merged[session_id] = ObjectTree()

    # -- merge model ----------------------------------------------------------
    def merge_latency(self, n_trees: int) -> float:
        """Simulated seconds to merge *n_trees* snapshot trees from scratch.

        Flat: ``cost * n``.  Combiner tree of fan-in *f*: the combiners
        of one level fold concurrently (each folds at most *f* inputs)
        and the levels run in sequence, so latency is
        ``cost * f * ceil(log_f n)``.
        """
        if n_trees <= 1:
            return self.merge_cost_per_tree * n_trees
        if self.fan_in is None:
            return self.merge_cost_per_tree * n_trees
        levels = math.ceil(math.log(n_trees, self.fan_in))
        return self.merge_cost_per_tree * self.fan_in * max(1, levels)

    def merge_latency_incremental(self, n_dirty: int, n_total: int) -> float:
        """Simulated seconds for an incremental merge (closed-form model).

        Only engines whose snapshot advanced since the last poll cost
        anything.  Flat (``fan_in=None``): ``cost * n_dirty``.  With a
        fan-in *f* the model now accounts for the combiner tier: each of
        the ``ceil(log_f n_total)`` levels folds at most
        ``min(n_dirty, f)`` dirty inputs per combiner concurrently, so
        the charge is ``cost * levels * min(n_dirty, f)``.  Either form
        is capped at the from-scratch :meth:`merge_latency` — an
        incremental re-merge can never be slower than rebuilding.  (A
        session with a *live* tier is charged the tier's exact
        per-level dirty profile instead; this closed form serves the
        cost-model fallback and the benchmarks.)
        """
        if n_dirty <= 0 or n_total <= 0:
            return 0.0
        if self.fan_in is None:
            tiered = self.merge_cost_per_tree * n_dirty
        else:
            levels = max(1, math.ceil(math.log(max(n_total, 2), self.fan_in)))
            tiered = (
                self.merge_cost_per_tree
                * levels
                * min(n_dirty, self.fan_in)
            )
        return min(tiered, self.merge_latency(n_total))

    # -- serving ------------------------------------------------------------
    def _recompute_merged(self, session_id: str) -> ObjectTree:
        """Re-fold only the dirty paths of the cached merged tree.

        The per-path fold runs over the cached engine trees in sorted
        engine order — the exact association order of a from-scratch
        ``merge_from`` fold — so the result is bit-identical to a flat
        merge of the same snapshots.
        """
        cache = self._merged.setdefault(session_id, ObjectTree())
        dirty = self._dirty_paths.get(session_id)
        if not dirty:
            return cache
        trees = self._engine_trees.get(session_id, {})
        ordered = [trees[engine][1] for engine in sorted(trees)]
        for path in sorted(dirty):
            contributions = [
                tree.get(path) for tree in ordered if tree.exists(path)
            ]
            if cache.exists(path):
                cache.remove(path)
            if contributions:
                acc = contributions[0].copy()
                for obj in contributions[1:]:
                    acc += obj
                cache.put(path, acc)
        dirty.clear()
        return cache

    def merged(self, session_id: str, client_id: Optional[str] = None) -> Process:
        """Merge the latest snapshots; value is ``(tree_dict, progress)``.

        Charges the merge latency on the simulated clock, then performs
        the exact merge (only re-folding dirty paths in incremental mode).

        With coalescing on, a poll arriving while another poll's merge is
        in flight *joins* it instead of merging again: it waits for the
        leader's completion and is served the same ``(tree_dict,
        progress)`` — bit-identical to what its own merge would have
        produced, because the leader folds the freshest dirty state in
        the fixed sorted-engine order.  *client_id* (optional) keys the
        per-client sequence cursor, so redundant re-polls are observable
        via :meth:`poll_cursor` and the ``aida_polls_redundant_total``
        counter.
        """
        if self._down:
            raise ServiceUnavailable("AIDA manager is down")
        self._poll_metric.inc()
        entry = self._inflight.get(session_id) if self.coalesce else None
        if entry is not None:
            return self._join_merge(session_id, client_id, entry)
        span = self.obs.tracer.child("aida.merge", session=session_id)
        if self.coalesce:
            entry = {"event": self.env.event(), "waiters": 0}
            self._inflight[session_id] = entry

        def run():
            try:
                session = dict(self._snapshots.get(session_id, {}))
                n_total = len(session)
                if self.incremental:
                    tier = self._tiers.get(session_id)
                    if tier is not None:
                        n_dirty = len(tier.dirty_engines)
                        latency = tier.poll_latency(self.merge_cost_per_tree)
                    else:
                        n_dirty = len(self._dirty_engines.get(session_id, ()))
                        latency = self.merge_latency_incremental(
                            n_dirty, n_total
                        )
                else:
                    n_dirty = n_total
                    latency = self.merge_latency(n_total)
                span.set(n_trees=n_total, n_dirty=n_dirty)
                if entry is not None:
                    # Keep the merge joinable for at least the coalesce
                    # window, even when nothing is dirty yet.
                    latency = max(latency, self.coalesce_window_s)
                if latency:
                    yield self.env.timeout(latency)
                self._merge_metric.observe(latency)
                if self.incremental:
                    # Submissions may have landed while the latency elapsed;
                    # fold whatever is dirty *now* so the served tree matches
                    # the freshest snapshots.  The tier is re-fetched too: a
                    # drop/rewind during the sleep must not fold stale state.
                    session = dict(self._snapshots.get(session_id, {}))
                    n_total = len(session)
                    tier = self._tiers.get(session_id)
                    if tier is not None:
                        n_dirty = len(tier.dirty_engines)
                        self._cache_hit_metric.inc(max(0, n_total - n_dirty))
                        self._cache_miss_metric.inc(n_dirty)
                        self._dirty_engines_metric.observe(n_dirty)
                        for level_folds in tier.refold():
                            self._combiner_folds_metric.observe(level_folds)
                        merged_tree = tier.root_tree
                        tier.dirty_engines.clear()
                    else:
                        dirty_engines = self._dirty_engines.get(session_id)
                        n_dirty = len(dirty_engines) if dirty_engines else 0
                        self._cache_hit_metric.inc(max(0, n_total - n_dirty))
                        self._cache_miss_metric.inc(n_dirty)
                        self._dirty_engines_metric.observe(n_dirty)
                        merged_tree = self._recompute_merged(session_id)
                        if dirty_engines:
                            dirty_engines.clear()
                else:
                    merged_tree = ObjectTree()
                    for snapshot in sorted(
                        session.values(), key=lambda s: s.engine_id
                    ):
                        merged_tree.merge_from(
                            ObjectTree.from_dict(snapshot.tree)
                        )
                generation = self._generations.get(session_id, 0)
                if n_dirty:
                    generation += 1
                    if session_id not in self._dropped:
                        # A zombie merge finishing after close must not
                        # resurrect the maps drop_session released.
                        self._generations[session_id] = generation
                progress = MergeProgress(
                    session_id=session_id,
                    engines_reporting=len(session),
                    events_processed=sum(
                        s.events_processed for s in session.values()
                    ),
                    total_events=sum(s.total_events for s in session.values()),
                    final_engines=sum(1 for s in session.values() if s.final),
                    run_id=self._run_ids.get(session_id, 0),
                    analysis_versions=sorted(
                        {s.analysis_version for s in session.values()}
                    ),
                    merged_at=self.env.now,
                    expected_engines=self._expected.get(session_id),
                    recovering=self._recovering.get(session_id, False),
                    merge_generation=generation,
                )
                self.merge_log.append((session_id, len(session), latency))
                result = (merged_tree.to_dict(), progress)
            except BaseException as exc:
                if entry is not None:
                    if self._inflight.get(session_id) is entry:
                        del self._inflight[session_id]
                    if entry["waiters"] and not entry["event"].triggered:
                        entry["event"].fail(exc)
                raise
            self._note_served(session_id, client_id, generation)
            if entry is not None:
                if self._inflight.get(session_id) is entry:
                    del self._inflight[session_id]
                if entry["waiters"] and not entry["event"].triggered:
                    entry["event"].succeed((result, generation))
                span.set(coalesced_waiters=entry["waiters"])
            return result

        return self.env.process(self.obs.tracer.wrap(span, run()))

    def _join_merge(
        self, session_id: str, client_id: Optional[str], entry: dict
    ) -> Process:
        """Serve a poll from another poll's in-flight merge."""
        entry["waiters"] += 1
        self._coalesced_metric.inc()
        span = self.obs.tracer.child("aida.merge.join", session=session_id)

        def join():
            result, generation = yield entry["event"]
            self._note_served(session_id, client_id, generation)
            return result

        return self.env.process(self.obs.tracer.wrap(span, join()))

    def _note_served(
        self, session_id: str, client_id: Optional[str], generation: int
    ) -> None:
        """Advance the client's sequence cursor; count redundant polls."""
        if client_id is None or session_id in self._dropped:
            return
        cursors = self._cursors.setdefault(session_id, {})
        if cursors.get(client_id) == generation:
            self._redundant_metric.inc()
        cursors[client_id] = generation

    def poll_cursor(
        self, session_id: str, client_id: str
    ) -> Optional[int]:
        """Last merge generation served to *client_id* (``None`` = never)."""
        return self._cursors.get(session_id, {}).get(client_id)

    def merge_generation(self, session_id: str) -> int:
        """Current merge generation of the session (0 = nothing folded)."""
        return self._generations.get(session_id, 0)

    def snapshot_count(self, session_id: str) -> int:
        """Engines with at least one stored snapshot."""
        if self._down:
            raise ServiceUnavailable("AIDA manager is down")
        return len(self._snapshots.get(session_id, {}))
