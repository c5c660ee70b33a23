"""The merge runs when a session's merge state changes, not when a poll
asks: every accepted snapshot, re-plan, crash, rewind, discard, restore,
expected-engine or recovery change starts the session's merge (one in
flight folds the change, and is charged for it, when its latency
elapses), and a poll joins that merge or reads the reply it left."""

import pytest

from repro.aida.hist1d import Histogram1D
from repro.aida.tree import ObjectTree
from repro.engine.engine import Snapshot
from repro.services.aida_manager import AIDAManagerService
from repro.services.combiner import MergeTree
from repro.sim import Environment

COST = 0.5


def snapshot(engine_id, entries, sequence=1):
    tree = ObjectTree()
    hist = Histogram1D("h", bins=10, lower=0, upper=10)
    for _ in range(entries):
        hist.fill(5.0)
    tree.put("/h", hist)
    return Snapshot(
        engine_id=engine_id,
        sequence=sequence,
        events_processed=entries,
        total_events=100,
        analysis_version=1,
        run_id=0,
        tree=tree.frozen_copy(),
    )


def test_a_poll_after_the_merge_reads_a_reply_with_the_snapshot():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=COST)
    manager.submit_snapshot("s1", snapshot("e0", 3))
    env.run()
    assert env.now == pytest.approx(COST)
    poll = manager.merged("s1")
    assert poll.processed
    tree, progress = poll.value
    assert tree.get("/h").entries == 3
    assert progress.merged_at == pytest.approx(COST)
    assert progress.merge_generation == manager.merge_generation("s1") == 1
    assert len(manager.merge_log) == 1


def test_a_poll_during_the_merge_joins_it():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=COST)
    manager.submit_snapshot("s1", snapshot("e0", 3))
    env.run(until=0.2)
    poll = manager.merged("s1")
    tree, progress = env.run(until=poll)
    # Served when the snapshot's merge ends, not one merge after the poll.
    assert env.now == pytest.approx(COST)
    assert tree.get("/h").entries == 3
    assert manager.merge_log == [("s1", 1, COST)]
    assert progress.merge_generation == manager.merge_generation("s1") == 1


def test_the_planned_tree_answers_the_first_poll():
    """A session's first poll finds the reply of the merge its planning
    started, and waits for no coalesce window."""
    env = Environment()
    manager = AIDAManagerService(
        env, merge_cost_per_tree=COST, coalesce_window_s=0.05
    )
    manager.set_expected_engines("s1", 2)
    manager.configure_tier("s1", ["e0", "e1"])
    env.run()
    poll = manager.merged("s1")
    assert poll.processed
    tree, progress = poll.value
    assert tree.paths() == [] and progress.expected_engines == 2


def test_a_background_fold_that_raises_stops_no_run_and_the_next_poll_merges(
    monkeypatch,
):
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=COST)
    refold = MergeTree.refold
    calls = []

    def broken_refold(self):
        calls.append(env.now)
        raise RuntimeError("fold broke")

    monkeypatch.setattr(MergeTree, "refold", broken_refold)
    manager.submit_snapshot("s1", snapshot("e0", 3))
    env.run()  # the failed background merge is defused
    assert calls == [pytest.approx(COST)]
    assert manager.session_cache_keys("s1") == ["tiers"]
    monkeypatch.setattr(MergeTree, "refold", refold)
    poll = manager.merged("s1")
    assert not poll.processed  # no reply, no merge in flight: it leads one
    tree, _ = env.run(until=poll)
    assert tree.get("/h").entries == 3
    assert env.now == pytest.approx(2 * COST)


def test_drop_session_during_a_background_merge_leaves_no_state():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=COST)
    manager.submit_snapshot("s1", snapshot("e0", 3))
    assert manager.session_cache_keys("s1") == ["inflight", "tiers"]
    manager.drop_session("s1")
    env.run()
    assert env.now == pytest.approx(COST)
    assert manager.session_cache_keys("s1") == []


def test_a_merge_from_before_a_restart_folds_nothing_after_it():
    """The manager crashes, restarts and restores while a merge is in
    flight: the old merge fails, and the restore's merge serves."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=COST)
    manager.submit_snapshot("s1", snapshot("e0", 3))
    state = manager.checkpoint_state("s1")
    env.run(until=0.2)
    manager.crash()
    manager.restart()
    manager.restore_state("s1", state)
    env.run(until=COST + 0.1)  # the old merge's latency is over
    assert manager.merge_log == []
    assert "replies" not in manager.session_cache_keys("s1")
    env.run()
    assert env.now == pytest.approx(0.2 + COST)
    assert manager.merge_log == [("s1", 1, COST)]
    poll = manager.merged("s1")
    assert poll.processed and poll.value[0].get("/h").entries == 3
