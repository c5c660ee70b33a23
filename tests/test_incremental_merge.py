"""Tests for the incremental merge pipeline: delta snapshots, per-engine
entries in the AIDA manager's merge tree, and the resync protocol between
them."""

import pytest

from repro.aida.hist1d import Histogram1D
from repro.aida.tree import ObjectTree
from repro.engine.engine import AnalysisEngine, Snapshot
from repro.obs import Observability
from repro.services.aida_manager import AIDAManagerService
from repro.sim import Environment
from tests.merge_oracle import reference_merge


def make_snapshot(
    engine_id,
    entries,
    sequence=1,
    run_id=0,
    final=False,
    base_sequence=0,
    path="/h",
):
    tree = ObjectTree()
    hist = Histogram1D("h", bins=10, lower=0, upper=10)
    for _ in range(entries):
        hist.fill(5.0)
    tree.put(path, hist)
    return Snapshot(
        engine_id=engine_id,
        sequence=sequence,
        events_processed=entries,
        total_events=100,
        analysis_version=1,
        run_id=run_id,
        tree=tree.frozen_copy(),
        final=final,
        base_sequence=base_sequence,
    )


def merged_entries(env, manager, session_id="s1", path="/h"):
    tree, _ = env.run(until=manager.merged(session_id))
    return tree.get(path).entries


# ---------------------------------------------------------------------------
# engine-side delta snapshots
# ---------------------------------------------------------------------------

def make_engine(**kwargs):
    engine = AnalysisEngine("e0", **kwargs)
    engine.tree.put("/a", Histogram1D("a", bins=10, lower=0, upper=10))
    engine.tree.put("/b", Histogram1D("b", bins=10, lower=0, upper=10))
    return engine


def test_first_snapshot_is_full_keyframe():
    engine = make_engine()
    snap = engine.take_snapshot()
    assert snap.base_sequence == 0
    assert set(snap.tree.paths()) == {"/a", "/b"}


def test_delta_carries_only_changed_objects():
    engine = make_engine()
    engine.take_snapshot()
    engine.tree.get("/a").fill(5.0)
    snap = engine.take_snapshot()
    assert snap.base_sequence == 1
    assert snap.sequence == 2
    assert set(snap.tree.paths()) == {"/a"}


def test_unchanged_tree_yields_empty_delta():
    engine = make_engine()
    engine.take_snapshot()
    snap = engine.take_snapshot()
    assert snap.base_sequence == 1
    assert snap.tree.paths() == []


def test_keyframe_cadence():
    engine = make_engine(keyframe_every=3)
    kinds = []
    for _ in range(7):
        engine.tree.get("/a").fill(5.0)
        kinds.append(engine.take_snapshot().base_sequence == 0)
    # full, delta, delta, full, delta, delta, full
    assert kinds == [True, False, False, True, False, False, True]


def test_full_flag_forces_keyframe():
    engine = make_engine()
    engine.take_snapshot()
    snap = engine.take_snapshot(full=True)
    assert snap.base_sequence == 0
    assert set(snap.tree.paths()) == {"/a", "/b"}


def test_keyframe_every_one_always_full():
    engine = make_engine(keyframe_every=1)
    for _ in range(3):
        engine.tree.get("/a").fill(5.0)
        snap = engine.take_snapshot()
        assert snap.base_sequence == 0
        assert set(snap.tree.paths()) == {"/a", "/b"}


def test_rewind_resets_delta_state():
    engine = make_engine()
    engine.take_snapshot()
    engine.rewind()
    engine.tree.put("/c", Histogram1D("c", bins=10, lower=0, upper=10))
    snap = engine.take_snapshot()
    assert snap.base_sequence == 0  # first snapshot of the new run is full
    assert snap.sequence == 1
    assert snap.run_id == 1


def test_replaced_object_is_detected_as_dirty():
    engine = make_engine()
    engine.take_snapshot()
    engine.tree.remove("/b")
    engine.tree.put("/b", Histogram1D("b", bins=10, lower=0, upper=10))
    snap = engine.take_snapshot()
    assert set(snap.tree.paths()) == {"/b"}


# ---------------------------------------------------------------------------
# manager-side ingestion and the resync protocol
# ---------------------------------------------------------------------------

def test_delta_applies_on_top_of_keyframe():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    assert manager.submit_snapshot("s1", make_snapshot("e0", 10)) == "accepted"
    delta = make_snapshot("e0", 25, sequence=2, base_sequence=1)
    assert manager.submit_snapshot("s1", delta) == "accepted"
    assert merged_entries(env, manager) == 25  # latest cumulative state wins


def test_delta_adds_new_paths():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    delta = make_snapshot("e0", 7, sequence=2, base_sequence=1, path="/h2")
    assert manager.submit_snapshot("s1", delta) == "accepted"
    tree, _ = env.run(until=manager.merged("s1"))
    assert tree.get("/h").entries == 10
    assert tree.get("/h2").entries == 7


def test_delta_without_keyframe_requests_resync():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    delta = make_snapshot("e0", 10, sequence=2, base_sequence=1)
    assert manager.submit_snapshot("s1", delta) == "resync"
    assert manager.snapshot_count("s1") == 0
    # A full keyframe recovers.
    full = make_snapshot("e0", 10, sequence=3)
    assert manager.submit_snapshot("s1", full) == "accepted"
    assert merged_entries(env, manager) == 10


def test_sequence_gap_requests_resync():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10, sequence=1))
    # Delta based on sequence 2, but the cache holds sequence 1.
    delta = make_snapshot("e0", 30, sequence=3, base_sequence=2)
    assert manager.submit_snapshot("s1", delta) == "resync"
    assert merged_entries(env, manager) == 10  # cache untouched


def test_engine_manager_resync_roundtrip():
    # A lost snapshot self-heals: the manager reports the gap, the engine
    # republishes a full keyframe, and the merged state is exact.
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    engine = make_engine()
    engine.take_snapshot()  # keyframe... lost in transit, never submitted
    engine.tree.get("/a").fill(5.0)
    delta = engine.take_snapshot()
    assert delta.base_sequence == 1
    assert manager.submit_snapshot("s1", delta) == "resync"
    full = engine.take_snapshot(full=True)
    assert manager.submit_snapshot("s1", full) == "accepted"
    tree, _ = env.run(until=manager.merged("s1"))
    assert tree.get("/a").entries == 1


# ---------------------------------------------------------------------------
# drop accounting
# ---------------------------------------------------------------------------

def test_dropped_snapshots_counted_by_reason():
    env = Environment()
    obs = Observability(env)
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0, obs=obs)
    manager.submit_snapshot("s1", make_snapshot("e0", 10, sequence=2, run_id=1))
    # banned engine
    manager.discard_engine("s1", "e1")
    assert manager.submit_snapshot("s1", make_snapshot("e1", 5)) == "dropped"
    # stale run
    stale = make_snapshot("e2", 5, run_id=0)
    assert manager.submit_snapshot("s1", stale) == "dropped"
    # out-of-order duplicate
    dup = make_snapshot("e0", 5, sequence=2, run_id=1)
    assert manager.submit_snapshot("s1", dup) == "dropped"
    # delta gap
    gap = make_snapshot("e3", 5, sequence=5, base_sequence=4, run_id=1)
    assert manager.submit_snapshot("s1", gap) == "resync"
    counter = obs.metrics.get("aida_snapshots_dropped_total")
    assert counter.value(reason="banned") == 1
    assert counter.value(reason="stale_run") == 1
    assert counter.value(reason="out_of_order") == 1
    assert counter.value(reason="gap") == 1


# ---------------------------------------------------------------------------
# snapshot aliasing (regression)
# ---------------------------------------------------------------------------

def scribble_on(hist):
    """Every way to edit a histogram in place; each must raise and leave
    the statistics as they were."""
    before = hist.to_dict()
    attempts = [
        lambda: hist.fill(5.0),
        lambda: hist.fill_array([1.0, 2.0]),
        lambda: hist.reset(),
        lambda: hist.scale(2.0),
        lambda: hist.__iadd__(hist.copy()),
        lambda: hist._counts.__setitem__(slice(None), 999),
        lambda: hist._sumw.__setitem__(0, -1.0),
        lambda: hist._sumw2.__setitem__(0, -1.0),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError, match="read-only"):
            attempt()
    assert hist.to_dict() == before


def test_mutating_submitted_tree_cannot_corrupt_merge():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    snapshot = make_snapshot("e0", 10)
    manager.submit_snapshot("s1", snapshot)
    before, _ = env.run(until=manager.merged("s1"))
    # The submitter still holds the snapshot: every edit is refused.
    scribble_on(snapshot.tree.get("/h"))
    with pytest.raises(ValueError, match="read-only"):
        snapshot.tree.put("/evil", Histogram1D("evil", bins=1, lower=0, upper=1))
    assert merged_entries(env, manager) == 10
    assert before.to_dict() == make_snapshot("e0", 10).tree.to_dict()


def manager_at_depth(env, tiered):
    """A manager whose ``s1`` tree is one leaf, or (tiered) two levels."""
    manager = AIDAManagerService(
        env, merge_cost_per_tree=0.0, fan_in=2 if tiered else None
    )
    tier = manager.configure_tier("s1", ["e0", "e1", "e2"])
    assert tier.depth == (2 if tiered else 1)
    return manager


@pytest.mark.parametrize("tiered", [True, False])
def test_submitted_snapshot_tree_refuses_put_and_remove(tiered):
    env = Environment()
    manager = manager_at_depth(env, tiered)
    snapshot = make_snapshot("e0", 10)
    manager.submit_snapshot("s1", snapshot)
    before, _ = env.run(until=manager.merged("s1"))
    with pytest.raises(ValueError, match="read-only"):
        snapshot.tree.remove("/h")
    with pytest.raises(ValueError, match="read-only"):
        snapshot.tree.mkdir("/dir")
    # A delta on top still applies to the leaf's own copy of the tree.
    delta = make_snapshot("e0", 4, sequence=2, base_sequence=1, path="/h2")
    assert manager.submit_snapshot("s1", delta) == "accepted"
    after, _ = env.run(until=manager.merged("s1"))
    assert after.paths() == ["/h", "/h2"]
    assert snapshot.tree.paths() == ["/h"]
    assert after.get("/h") is before.get("/h")


@pytest.mark.parametrize("tiered", [True, False])
def test_served_tree_is_not_aliased_to_cache(tiered):
    env = Environment()
    manager = manager_at_depth(env, tiered)
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    served, _ = env.run(until=manager.merged("s1"))
    scribble_on(served.get("/h"))
    for edit in (
        lambda: served.remove("/h"),
        lambda: served.put("/evil", Histogram1D("evil", bins=1, lower=0, upper=1)),
        served.reset_all,
    ):
        with pytest.raises(ValueError, match="read-only"):
            edit()
    manager.submit_snapshot("s1", make_snapshot("e1", 5))
    after, _ = env.run(until=manager.merged("s1"))
    assert after.get("/h").entries == 15
    assert served.paths() == ["/h"] and served.get("/h").entries == 10
    # A copy is the way to edit.
    mine = served.copy()
    mine.get("/h").fill(5.0)
    assert mine.get("/h").entries == 11


@pytest.mark.parametrize("tiered", [True, False])
def test_coalesced_joiners_get_the_leaders_tree(tiered):
    env = Environment()
    manager = manager_at_depth(env, tiered)
    manager.merge_cost_per_tree = 0.1
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    manager.submit_snapshot("s1", make_snapshot("e2", 7))
    polls = [manager.merged("s1") for _ in range(4)]
    env.run(until=polls[-1])
    trees = [poll.value[0] for poll in polls]
    assert all(tree is trees[0] for tree in trees)
    assert trees[0].get("/h").entries == 17
    # Nothing moved: a later poll of the same generation is served it too.
    again, _ = env.run(until=manager.merged("s1"))
    assert again is trees[0]


# ---------------------------------------------------------------------------
# the incremental cost model
# ---------------------------------------------------------------------------

def test_merge_latency_incremental_charges_per_dirty_engine():
    """One leaf folds its dirty engines in sequence: ``cost x dirty``."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.1)
    ids = [f"e{i:02d}" for i in range(64)]
    tier = manager.configure_tier("s1", ids)
    for engine_id in ids:
        manager.submit_snapshot("s1", make_snapshot(engine_id, 10))
    # Everything dirty is the from-scratch cost.
    assert tier.poll_latency(0.1) == pytest.approx(6.4)
    env.run(until=manager.merged("s1"))
    assert tier.poll_latency(0.1) == 0.0
    for n_dirty, engine_id in enumerate(ids[:5], start=1):
        delta = make_snapshot(engine_id, 20, sequence=2, base_sequence=1)
        manager.submit_snapshot("s1", delta)
        assert tier.poll_latency(0.1) == pytest.approx(0.1 * n_dirty)
    # A session nobody reported to costs nothing.
    started = env.now
    env.run(until=manager.merged("nobody"))
    assert env.now == started


def test_refolding_without_a_discarded_engine_is_charged_as_a_fold():
    """Four engines all dirty, one then discarded: the leaf re-folds four
    dirty children (three contributions and one removal) — 0.20 s, not the
    0.15 s a from-scratch fold of the three survivors would cost.  The
    first snapshot starts the merge; when its latency ends it is charged
    for all five changes before it folds."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.05)
    for i in range(4):
        manager.submit_snapshot("s1", make_snapshot(f"e{i}", 10))
    manager.discard_engine("s1", "e3")
    env.run()
    assert env.now == pytest.approx(0.20)
    assert manager.merge_log == [("s1", 3, pytest.approx(0.20))]
    assert merged_entries(env, manager) == 30
    # Discarding from a clean tree costs the one re-fold.
    manager.discard_engine("s1", "e2")
    env.run()
    assert env.now == pytest.approx(0.25)
    assert manager.merge_log[-1] == ("s1", 2, pytest.approx(0.05))
    assert merged_entries(env, manager) == 20


def test_a_discard_from_a_clean_tree_starts_its_one_refold():
    """Coalescing, the discard itself starts the merge, charged the one
    re-fold; the poll after it is served that merge's reply."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.05)
    for i in range(4):
        manager.submit_snapshot("s1", make_snapshot(f"e{i}", 10))
    env.run()
    assert merged_entries(env, manager) == 40
    started, n_merges = env.now, len(manager.merge_log)
    manager.discard_engine("s1", "e2")
    env.run()
    assert env.now == pytest.approx(started + 0.05)
    assert manager.merge_log[n_merges:] == [("s1", 3, pytest.approx(0.05))]
    poll = manager.merged("s1")
    assert poll.processed and poll.value[0].get("/h").entries == 30
    assert len(manager.merge_log) == n_merges + 1


def test_poll_charges_only_dirty_engines():
    """The snapshots start the merge, charged for the eight dirty
    engines it folds; one engine advancing later costs one tree's worth,
    and the polls after each merge cost nothing."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.5)
    for i in range(8):
        manager.submit_snapshot("s1", make_snapshot(f"e{i}", 10))
    env.run()
    first_merge = env.now
    assert first_merge == pytest.approx(0.5 * 8)
    assert manager.merge_log == [("s1", 8, pytest.approx(4.0))]
    # Clean poll: nothing dirty, nothing charged.
    assert merged_entries(env, manager) == 80
    assert env.now == pytest.approx(first_merge)
    # One engine advances: one tree's worth of work.
    delta = make_snapshot("e3", 20, sequence=2, base_sequence=1)
    manager.submit_snapshot("s1", delta)
    env.run()
    assert env.now == pytest.approx(first_merge + 0.5)
    assert manager.merge_log[-1] == ("s1", 8, 0.5)
    assert merged_entries(env, manager) == 90
    assert env.now == pytest.approx(first_merge + 0.5)
    assert len(manager.merge_log) == 2


def test_cache_metrics_track_hits_and_misses():
    env = Environment()
    obs = Observability(env)
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0, obs=obs)
    for i in range(4):
        manager.submit_snapshot("s1", make_snapshot(f"e{i}", 10))
    env.run(until=manager.merged("s1"))  # all 4 dirty
    manager.submit_snapshot(
        "s1", make_snapshot("e0", 20, sequence=2, base_sequence=1)
    )
    env.run(until=manager.merged("s1"))  # 1 dirty, 3 cached
    assert obs.metrics.get("aida_merge_cache_misses_total").total() == 5
    assert obs.metrics.get("aida_merge_cache_hits_total").total() == 3
    dirty = obs.metrics.get("aida_merge_dirty_engines")
    assert dirty.count() == 2


# ---------------------------------------------------------------------------
# cache invalidation keeps results exact
# ---------------------------------------------------------------------------

def test_discard_engine_removes_its_contribution():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    manager.submit_snapshot("s1", make_snapshot("e1", 20))
    assert merged_entries(env, manager) == 30  # caches are warm
    manager.discard_engine("s1", "e1")
    assert merged_entries(env, manager) == 10


def test_begin_run_invalidates_caches():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 50))
    assert merged_entries(env, manager) == 50
    manager.begin_run("s1", 1)
    # A delta from the new run cannot apply: the cache is gone.
    delta = make_snapshot("e0", 60, sequence=2, base_sequence=1, run_id=1)
    assert manager.submit_snapshot("s1", delta) == "resync"
    manager.submit_snapshot("s1", make_snapshot("e0", 5, run_id=1))
    assert merged_entries(env, manager) == 5


def test_rewind_via_submission_invalidates_caches():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 50))
    assert merged_entries(env, manager) == 50
    # A run-1 snapshot arrives without an explicit begin_run.
    manager.submit_snapshot("s1", make_snapshot("e1", 5, run_id=1))
    assert merged_entries(env, manager) == 5


def test_drop_session_clears_caches():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    env.run(until=manager.merged("s1"))
    manager.drop_session("s1")
    tree, progress = env.run(until=manager.merged("s1"))
    assert tree.paths() == []
    assert progress.engines_reporting == 0


# ---------------------------------------------------------------------------
# incremental vs from-scratch equivalence
# ---------------------------------------------------------------------------

def test_incremental_matches_from_scratch_merge():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    latest = {}
    for i in range(5):
        snap = make_snapshot(f"e{i}", 10 * (i + 1))
        manager.submit_snapshot("s1", snap)
        latest[snap.engine_id] = snap.tree
    served, _ = env.run(until=manager.merged("s1"))
    assert served.to_dict() == reference_merge(latest)
