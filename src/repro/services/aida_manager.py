"""AIDA Manager Service: collect, merge, and serve intermediate results.

"As soon as the analysis begins, the intermediate results from each
individual analysis engines are collected and merged at the Manager node by
a special manager service called the AIDA manager service.  A separate
plug-in on the JAS client constantly polls the AIDA manager" (§3.7).

All merge state of a session lives in one :class:`~repro.services.
combiner.MergeTree`, and every poll folds through it.  With
``fan_in=None`` the tree is a single leaf that owns every engine — the
paper's one merging component, whose all-dirty poll costs O(engines)
and is §2.5's bottleneck.  With ``fan_in=f`` the same tree grows the
"sub-level of components that performs the merging" §2.5 prescribes:
leaf combiners of degree *f* under internal combiners, folding
concurrently within a level, so an all-dirty poll costs
``f * ceil(log_f engines)`` instead.  ``bench_merge_tree.py`` measures
both depths at 4-1024 engines and checks the served trees are equal.

The merge is **incremental** at every depth: the tree keeps each
engine's latest accepted snapshot with its cumulative tree of frozen
objects (stored as they arrive), accepts *delta* snapshots that carry
only changed objects on top of an acknowledged base sequence, and
re-folds only the paths touched since the last poll.  A poll is
charged the tree's own ``poll_latency`` — what it is about to fold —
on the simulated clock.
``begin_run`` (rewind), ``discard_engine`` (failure recovery),
``crash_combiner`` and ``drop_session`` invalidate exactly the state
they name, so the served tree stays bit-identical to a from-scratch
fold of the surviving latest snapshots (property-tested against
``tests/merge_oracle.py``, the only place that fold still lives).

Correctness rules:

* the latest snapshot per engine wins (snapshots are cumulative);
* snapshots from an older ``run_id`` (pre-rewind) are discarded;
* a delta whose ``base_sequence`` does not match the cached sequence is
  rejected with ``"resync"`` so the engine re-publishes a full keyframe;
* merging is the exact AIDA merge, so the served tree equals a
  single-engine run over the concatenated data;
* progress is derived from the engine entries the tree folds, so a
  result is never reported complete over contributions the tree lost.

The poll contract (:meth:`AIDAManagerService.merged`): every reply
carries ``progress.merge_generation``, a validator of the served root
that moves whenever the root may have changed and is never reused (one
frozen tree is served per generation, shared by its polls); a
poll that sends the validator it holds (``have=``) and is about to be
served the same one gets ``(None, progress)`` — "not modified" — at the
same simulated cost.  Concurrent polls of one session share one merge:
the first, the leader, is a timer that folds; the rest wait on an event
the leader triggers, and it is the leader that advances their cursors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.aida.tree import ObjectTree
from repro.engine.engine import Snapshot
from repro.obs import NULL_OBS, NULL_SPAN, Observability
from repro.resilience.faults import ServiceUnavailable
from repro.services.combiner import EngineEntry, MergeTree, plan_groups
from repro.sim import Environment, Event, Timeout


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
    #: Validator of the served tree: bumps whenever the root may have
    #: changed (a merge folded dirty data, a rewind or a re-plan replaced
    #: it) and is never reused within a session, manager restarts
    #: included.  Clients send the one they hold back as ``have=`` to be
    #: told "not modified"; the per-client cursors compare it to tell a
    #: fresh tree from a redundant re-poll.
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


#: Generations of one manager incarnation live in their own 2**32 block:
#: whatever a checkpoint remembered, numbers served after a restart are
#: greater than every number served before it.
_GENERATIONS_PER_BOOT = 1 << 32


class _InflightMerge:
    """A merge in flight and the polls that joined it.

    Consecutive joiners holding the same validator share one event (a
    *wave*): replies still go out in arrival order, and a wave's reply —
    the tree or "not modified" — is decided once, when the merge is done.
    """

    __slots__ = ("waves", "n_joiners", "full")

    def __init__(self) -> None:
        #: ``(have, event, [(client_id, join span), ...])``, oldest first.
        self.waves: List[tuple] = []
        self.n_joiners = 0
        #: The leader's ``(tree, progress)``, set when it completes.
        self.full: Optional[tuple] = None

    def join(self, env: Environment, client_id, have, span) -> Event:
        if not self.waves or self.waves[-1][0] != have:
            self.waves.append((have, Event(env), []))
        _have, event, joiners = self.waves[-1]
        joiners.append((client_id, span))
        self.n_joiners += 1
        return event


class AIDAManagerService:
    """Stores per-engine snapshots and serves merged results.

    Parameters
    ----------
    env:
        Simulation environment (merge latency is charged on its clock).
    merge_cost_per_tree:
        Seconds to merge one snapshot tree into an accumulator.
    fan_in:
        Degree of the session merge trees; ``None`` = one leaf owns
        every engine (a single merging component, §2.5's bottleneck
        case).  The session layer plans each tree over the session's
        engines via :meth:`configure_tier`.
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
        coalesce: bool = True,
        coalesce_window_s: float = 0.0,
    ) -> None:
        if merge_cost_per_tree < 0:
            raise ValueError("merge_cost_per_tree must be >= 0")
        if fan_in is not None and fan_in < 2:
            raise ValueError("fan_in must be >= 2")
        if coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        self.env = env
        self.obs = obs or NULL_OBS
        #: Per-merge span attributes and metrics: one branch, decided here.
        self._observed = self.obs.enabled
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
            "Merge tree depth per session (levels, 1 = a single leaf)",
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
        self.merge_cost_per_tree = merge_cost_per_tree
        self.fan_in = fan_in
        self.coalesce = coalesce
        self.coalesce_window_s = coalesce_window_s
        #: The merge tree per session: the only place engine snapshots,
        #: their trees and the partial merges live.
        self._tiers: Dict[str, MergeTree] = {}
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
        # -- poll coalescing --
        #: In-flight merge per session, with the polls that joined it.
        self._inflight: Dict[str, _InflightMerge] = {}
        #: Merge generation per session: the validator of its served root.
        self._generations: Dict[str, int] = {}
        #: Per session: ``(generation, frozen tree)`` last served.
        self._served: Dict[str, Tuple[int, ObjectTree]] = {}
        #: Times this manager came back from a crash.  Not session state:
        #: the one word a restarting service reads from disk and rewrites
        #: (an NFS server's boot verifier), so it survives ``crash()``.
        self._boots = 0
        #: Per session: client_id -> last merge generation served to it.
        self._cursors: Dict[str, Dict[str, int]] = {}
        #: Every per-session map, by audit name: close, crash and the
        #: leak audit walk this one list.
        self._session_maps: Dict[str, dict] = {
            "tiers": self._tiers,
            "run_ids": self._run_ids,
            "banned": self._banned,
            "expected": self._expected,
            "recovering": self._recovering,
            "inflight": self._inflight,
            "generations": self._generations,
            "served": self._served,
            "cursors": self._cursors,
        }
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
        the tree cannot apply (sequence gap, or the engine's entry was
        lost) and the engine must publish a full keyframe.
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
        if snapshot.run_id < current_run:
            # Stale snapshot from before the rewind.
            self._dropped_metric.inc(reason="stale_run")
            return "dropped"
        if snapshot.run_id > current_run:
            # A rewind happened: everything older is now invalid.
            self.begin_run(session_id, snapshot.run_id)
        tier = self._tiers.get(session_id)
        if tier is None:
            # First touch before the session layer planned the tree: a
            # single leaf takes every reporter (configure_tier re-plans it).
            tier = self._tiers[session_id] = MergeTree(session_id, self.fan_in)
        existing = tier.engine_entry(snapshot.engine_id)
        if (
            existing is not None
            and existing.snapshot.sequence >= snapshot.sequence
        ):
            self._dropped_metric.inc(reason="out_of_order")
            return "dropped"
        # Frozen objects: stored as they are, out of the submitter's reach.
        status = tier.ingest(snapshot)
        if status != "accepted":
            self._dropped_metric.inc(reason="gap")
            return status
        if self._observed:
            self._snapshot_metric.inc()
        return "accepted"

    # -- merge tree ---------------------------------------------------------
    def configure_tier(
        self, session_id: str, engine_ids
    ) -> Optional[MergeTree]:
        """Plan the session's merge tree over its engines.

        Called by the session layer once engine membership is known;
        idempotent (a planned tree is kept — late calls after spares
        join must not rebuild the topology under in-flight deltas).  A
        tree grown from early snapshots is a single leaf: if the plan
        needs more than one it is re-planned, and the entries already
        ingested carry over, marked dirty so the next poll re-folds them.
        """
        if self._down or session_id in self._dropped:
            return None
        groups = plan_groups(engine_ids, self.fan_in)
        grown = self._tiers.get(session_id)
        if grown is not None and (grown.depth > 1 or len(groups) <= 1):
            # Already planned, or a single leaf that is the whole plan.
            return grown
        tier = MergeTree(session_id, self.fan_in, groups)
        if grown is not None:
            for entry in grown.entries().values():
                tier.restore_engine(entry)
            # A new root: whatever the grown one served is not vouched for.
            self._bump_generation(session_id)
        self._tiers[session_id] = tier
        self._tier_depth_metric.set(tier.depth, session=session_id)
        n_engines = sum(len(group) for group in groups)
        self.obs.events.emit(
            "tier_configured",
            message=(
                f"{session_id}: {tier.n_combiners} combiners over "
                f"{n_engines} engines, depth {tier.depth}"
            ),
            session=session_id,
            engines=n_engines,
            combiners=tier.n_combiners,
            depth=tier.depth,
            fan_in=self.fan_in,
        )
        return tier

    def tier(self, session_id: str) -> Optional[MergeTree]:
        """The session's merge tree, once it has been touched."""
        return self._tiers.get(session_id)

    def combiner_of(self, session_id: str, engine_id: str) -> Optional[str]:
        """Leaf combiner *engine_id* publishes through (None = no tree yet)."""
        tier = self._tiers.get(session_id)
        if tier is None:
            return None
        return tier.combiner_of(engine_id)

    def crash_combiner(self, session_id: str, combiner_id: str) -> List[str]:
        """Kill one combiner node; returns the engines needing resync."""
        tier = self._tiers.get(session_id)
        if tier is None:
            raise MergeError(f"session {session_id!r} has no merge tree")
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

    def begin_run(self, session_id: str, run_id: int) -> None:
        """Invalidate snapshots older than *run_id* (a rewind happened).

        Called by the session service the moment it fans a rewind out, so
        a client polling right after the rewind never sees the *previous*
        run's (complete) results as if they were the new run's.  The tree
        keeps its topology (the engines are the same after a rewind) and
        drops every entry and partial.
        """
        if run_id > self._run_ids.get(session_id, 0):
            self._run_ids[session_id] = run_id
            tier = self._tiers.get(session_id)
            if tier is not None:
                # The served root changes (to empty) and nothing is left
                # dirty to announce it at the next poll.
                self._bump_generation(session_id)
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
        self._banned.setdefault(session_id, set()).add(engine_id)
        tier = self._tiers.get(session_id)
        if tier is not None:
            # Every path it contributed is re-folded without it.
            tier.discard_engine(engine_id)

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
        for per_session in self._session_maps.values():
            per_session.pop(session_id, None)
        self._dropped.add(session_id)

    def mark_dropped(self, session_id: str) -> None:
        """Re-tombstone a session known (from the journal) to be closed."""
        self._dropped.add(session_id)

    def session_cache_keys(self, session_id: str) -> List[str]:
        """Names of internal maps still holding state for *session_id*.

        Leak audit helper: after ``drop_session`` this must be empty, even
        for sessions that never produced a snapshot or closed abnormally.
        """
        return sorted(
            name
            for name, per_session in self._session_maps.items()
            if session_id in per_session
        )

    # -- service crash / recovery -------------------------------------------
    def crash(self) -> None:
        """The manager process dies: all volatile session state is lost."""
        for per_session in self._session_maps.values():
            per_session.clear()
        self._dropped.clear()
        self._down = True

    def restart(self) -> None:
        """Bring the endpoints back up (state restored separately)."""
        self._down = False
        self._boots += 1

    def checkpoint_state(self, session_id: str) -> dict:
        """Serialize the session's merge state for a durable checkpoint.

        Each engine entry carries its *full* cached tree (the latest
        snapshot may be a delta, which cannot be replayed without the
        base it was applied to).
        """
        tier = self._live_tier(session_id)
        engines = {}
        for engine_id, (snap, tree) in tier.entries().items():
            engines[engine_id] = {
                "sequence": snap.sequence,
                "events_processed": snap.events_processed,
                "total_events": snap.total_events,
                "analysis_version": snap.analysis_version,
                "run_id": snap.run_id,
                "final": snap.final,
                "tree": tree.to_dict(),
            }
        return {
            "run_id": self._run_ids.get(session_id, 0),
            "expected": self._expected.get(session_id),
            "banned": sorted(self._banned.get(session_id, ())),
            "generation": self.merge_generation(session_id),
            "engines": engines,
            "tier_groups": tier.leaf_groups(),
        }

    def restore_state(self, session_id: str, state: dict) -> None:
        """Rebuild the merge tree from a checkpoint's merge state.

        Every restored engine starts dirty, so the first poll re-folds
        the merged tree from the restored engine trees — the same
        association order as a clean run, hence bit-identical.  The
        merge generation resumes from the checkpointed one, or from this
        incarnation's floor when that is higher: polls served between the
        checkpoint and the crash saw generations the checkpoint never
        recorded, and none of those may name a different tree now.
        """
        self._run_ids[session_id] = state.get("run_id", 0)
        self._generations[session_id] = max(
            state.get("generation", 0), self.merge_generation(session_id)
        )
        if state.get("expected") is not None:
            self._expected[session_id] = state["expected"]
        if state.get("banned"):
            self._banned[session_id] = set(state["banned"])
        engines = state.get("engines", {})
        groups = state.get("tier_groups")
        if groups is None:
            # A checkpoint written without its topology: re-plan it.
            groups = plan_groups(engines, self.fan_in)
        tier = MergeTree(session_id, self.fan_in, groups)
        self._tiers[session_id] = tier
        self._tier_depth_metric.set(tier.depth, session=session_id)
        for engine_id, entry in engines.items():
            tree = ObjectTree.from_dict(entry["tree"])
            snapshot = Snapshot(
                engine_id=engine_id,
                sequence=entry["sequence"],
                events_processed=entry["events_processed"],
                total_events=entry["total_events"],
                analysis_version=entry["analysis_version"],
                run_id=entry["run_id"],
                tree=tree,
                final=entry.get("final", False),
            )
            tier.restore_engine(EngineEntry(snapshot, tree))

    # -- serving ------------------------------------------------------------
    def _live_tier(self, session_id: str) -> MergeTree:
        """The session's merge tree; for a session that holds none (never
        reported, or closed) an empty one that is not kept."""
        return self._tiers.get(session_id) or MergeTree(session_id, self.fan_in)

    def merged(
        self,
        session_id: str,
        client_id: Optional[str] = None,
        have: Optional[int] = None,
    ) -> Event:
        """Merge the latest snapshots; value is ``(tree, progress)``.

        Charges what the tree is about to fold on the simulated clock,
        then re-folds its dirty paths and serves the root as a frozen
        ``ObjectTree``, one per generation, shared by all its polls.

        **Validator.**  ``progress.merge_generation`` names the served
        root: it moves whenever the root's content may have (a dirty
        fold, a rewind, a re-plan of the tree) and a value is never
        reused for the session — not across a rewind, an engine discard,
        a combiner crash, nor a manager crash and recovery (see
        :meth:`restore_state`).  It is only comparable between replies
        of one manager: a client that re-binds (failover to another
        site) starts without one.

        **Not modified.**  *have* is the validator of the tree the
        caller still holds.  When it equals the validator about to be
        served the value is ``(None, progress)``: progress is always
        fresh, the tree is the one the caller has.  The poll is charged
        the same merge latency (and the same RMI round trip) either way;
        what it saves is the reply payload and the client's decode.
        ``have=None`` always gets the tree.

        **Coalescing.**  A poll arriving while another poll's merge is
        in flight *joins* it instead of merging again: it is handed an
        event the leader triggers when its merge completes, carrying the
        same ``(tree, progress)`` — equal to what the joiner's own merge
        would have produced, because the leader folds the freshest dirty
        state in the fixed sorted-engine order — or the not-modified form
        of it, per joiner's *have*.  The leader is one ``Timeout`` of
        the merge latency whose first callback folds and sets the reply
        as its value; the next advances every joiner's cursor, counts the
        coalesced polls and closes their ``aida.merge.join`` spans.
        *client_id* (optional) keys the per-client sequence cursor, so
        redundant re-polls are observable via :meth:`poll_cursor` and
        ``aida_polls_redundant_total``.
        """
        if self._down:
            raise ServiceUnavailable("AIDA manager is down")
        observed = self._observed
        if observed:
            self._poll_metric.inc()
        inflight = self._inflight.get(session_id) if self.coalesce else None
        if inflight is not None:
            span = NULL_SPAN
            if observed:
                span = self.obs.tracer.child("aida.merge.join", session=session_id)
            return inflight.join(self.env, client_id, have, span)
        tier = self._live_tier(session_id)
        latency = tier.poll_latency(self.merge_cost_per_tree)
        span = NULL_SPAN
        if observed:
            span = self.obs.tracer.child("aida.merge", session=session_id)
            span.set(n_trees=tier.n_engines, n_dirty=len(tier.dirty_engines))
        if self.coalesce:
            inflight = self._inflight[session_id] = _InflightMerge()
            # Keep the merge joinable for at least the coalesce window,
            # even when nothing is dirty yet.
            latency = max(latency, self.coalesce_window_s)
        leader = Timeout(self.env, latency)

        def fold(leader: Timeout) -> None:
            # Submissions may have landed while the latency elapsed: fold whatever is
            # dirty *now*, from a re-fetched tree (a drop/rewind during the sleep
            # must not fold stale state), so the reply has the freshest snapshots.
            if inflight is not None and self._inflight.get(session_id) is inflight:
                del self._inflight[session_id]
            with self.obs.tracer.activate(span):
                try:
                    tier = self._live_tier(session_id)
                    session = [e.snapshot for e in tier.entries().values()]
                    n_dirty = len(tier.dirty_engines)
                    level_folds = tier.refold()
                    if observed:
                        self._merge_metric.observe(latency)
                        self._cache_hit_metric.inc(max(0, len(session) - n_dirty))
                        self._cache_miss_metric.inc(n_dirty)
                        self._dirty_engines_metric.observe(n_dirty)
                        for folds in level_folds:
                            self._combiner_folds_metric.observe(folds)
                    if n_dirty:
                        self._bump_generation(session_id)
                    generation = self.merge_generation(session_id)
                    progress = MergeProgress(
                        session_id=session_id,
                        engines_reporting=len(session),
                        events_processed=sum(s.events_processed for s in session),
                        total_events=sum(s.total_events for s in session),
                        final_engines=sum(1 for s in session if s.final),
                        run_id=self._run_ids.get(session_id, 0),
                        analysis_versions=sorted({s.analysis_version for s in session}),
                        merged_at=self.env.now,
                        expected_engines=self._expected.get(session_id),
                        recovering=self._recovering.get(session_id, False),
                        merge_generation=generation,
                    )
                    self.merge_log.append((session_id, len(session), latency))
                    # One frozen root per generation; it shares the partial's
                    # frozen objects, which re-folds replace, never edit.
                    served = self._served.get(session_id)
                    if served is None or served[0] != generation:
                        root = ObjectTree()
                        root.update(tier.root_tree)
                        served = (generation, root.freeze())
                        if session_id in self._tiers:
                            self._served[session_id] = served
                except Exception as exc:
                    # ``fail()`` in place: the event is being processed.
                    leader._ok, leader._value = False, exc
                    span.finish(error=repr(exc))
                    return
                self._note_served(session_id, client_id, generation)
                full = (served[1], progress)
                if inflight is not None:
                    inflight.full = full
                    span.set(coalesced_waiters=inflight.n_joiners)
                span.finish()
            leader._value = (None, progress) if have == generation else full

        # The fold runs first; then the joiners are released, before the
        # leader's own caller resumes: its reply is scheduled ahead of
        # theirs, in arrival order.
        leader.callbacks.append(fold)
        if inflight is not None:
            leader.callbacks.append(
                lambda event: self._release_joiners(session_id, inflight, event)
            )
        return leader

    def _release_joiners(
        self, session_id: str, inflight: "_InflightMerge", leader: Event
    ) -> None:
        """The leader's merge completed: serve (or fail) every joiner."""
        if not inflight.n_joiners:
            return
        if self._observed:
            self._coalesced_metric.inc(inflight.n_joiners)
        if not leader.ok:
            for _have, event, joiners in inflight.waves:
                for _client_id, span in joiners:
                    span.finish(error=repr(leader.value))
                event.fail(leader.value)
            return
        full = inflight.full
        progress = full[1]
        generation = progress.merge_generation
        for have, event, joiners in inflight.waves:
            for client_id, span in joiners:
                self._note_served(session_id, client_id, generation)
                span.finish()
            event.succeed((None, progress) if have == generation else full)

    def _note_served(
        self, session_id: str, client_id: Optional[str], generation: int
    ) -> None:
        """Advance the client's sequence cursor; count redundant polls."""
        if client_id is None or session_id in self._dropped:
            return
        cursors = self._cursors.setdefault(session_id, {})
        if cursors.get(client_id) == generation and self._observed:
            self._redundant_metric.inc()
        cursors[client_id] = generation

    def poll_cursor(
        self, session_id: str, client_id: str
    ) -> Optional[int]:
        """Last merge generation served to *client_id* (``None`` = never)."""
        return self._cursors.get(session_id, {}).get(client_id)

    def merge_generation(self, session_id: str) -> int:
        """Current merge generation of the session: the validator of its
        served root (0 = nothing folded yet, on a manager never restarted)."""
        return self._generations.get(
            session_id, self._boots * _GENERATIONS_PER_BOOT
        )

    def _bump_generation(self, session_id: str) -> None:
        self._generations[session_id] = self.merge_generation(session_id) + 1

    def snapshot_count(self, session_id: str) -> int:
        """Engines with a snapshot in the session's merge tree."""
        if self._down:
            raise ServiceUnavailable("AIDA manager is down")
        return self._live_tier(session_id).n_engines
