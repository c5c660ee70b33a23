"""Unit + integration tests for the merge tree.

Covers topology planning and routing, the poll latency model, combiner
crash/resync and leaf retirement, checkpoint/restore of the tree,
session-state hygiene, and an end-to-end site run with ``merge_fan_in``
set against the single-leaf (``merge_fan_in=None``) run.
"""

import numpy as np
import pytest

from repro.aida.hist1d import Histogram1D
from repro.aida.tree import ObjectTree
from repro.analysis import higgs
from repro.client.client import IPAClient
from repro.core.site import GridSite, SiteConfig
from repro.engine.engine import Snapshot
from repro.services.aida_manager import AIDAManagerService, MergeError
from repro.services.combiner import (
    CombinerError,
    MergeTree,
    plan_groups,
)
from repro.sim import Environment
from tests.merge_oracle import reference_merge

COST = 0.01


def snap(engine_id, sequence, tree_dict, base=0, final=False):
    return Snapshot(
        engine_id=engine_id,
        sequence=sequence,
        events_processed=10,
        total_events=10,
        analysis_version=1,
        run_id=0,
        tree=tree_dict,
        final=final,
        base_sequence=base,
    )


def dyadic_tree(values):
    """A tree whose histogram fills are exact dyadic rationals, so every
    fold association yields bit-identical float sums."""
    tree = ObjectTree()
    hist = Histogram1D("h", "h", bins=16, lower=0.0, upper=1.0)
    for value in values:
        hist.fill((value % 33) / 32.0, weight=((value % 8) + 1) / 8.0)
    tree.put("/d/h", hist)
    return tree.to_dict()


def build_pair(n_engines, fan_in):
    """A single-leaf (``flat``) and a tiered manager in one environment."""
    env = Environment()
    flat = AIDAManagerService(env, merge_cost_per_tree=COST)
    tiered = AIDAManagerService(env, merge_cost_per_tree=COST, fan_in=fan_in)
    ids = [f"engine-{i:04d}" for i in range(n_engines)]
    flat.configure_tier("s1", ids)
    tiered.configure_tier("s1", ids)
    return env, flat, tiered, ids


# -- planning and topology --------------------------------------------------

def test_plan_groups_chunks_sorted_ids_contiguously():
    groups = plan_groups(["e3", "e1", "e0", "e2", "e4"], 2)
    assert groups == [["e0", "e1"], ["e2", "e3"], ["e4"]]


def test_plan_groups_rejects_bad_inputs():
    with pytest.raises(CombinerError):
        plan_groups(["e0"], 1)
    with pytest.raises(CombinerError):
        MergeTree("s1", 1, [["e0"]])


def test_tree_topology_shape():
    tier = MergeTree("s1", 4, plan_groups([f"e{i:02d}" for i in range(64)], 4))
    assert [len(level) for level in tier.levels] == [16, 4, 1]
    assert tier.depth == 3
    assert tier.n_combiners == 21
    assert tier.root.combiner_id == "s1/combiner-3.0"


def test_single_group_tree_has_depth_one():
    tier = MergeTree("s1", 8, [["e0", "e1"]])
    assert tier.depth == 1
    assert tier.root is tier.levels[0][0]
    # No fan-in: one leaf owns every engine, however many there are.
    ids = [f"e{i:03d}" for i in range(100)]
    assert plan_groups(ids, None) == [ids]
    lone = MergeTree("s1", None, plan_groups(ids, None))
    assert lone.depth == 1 and lone.n_combiners == 1
    assert {lone.combiner_of(e) for e in ids + ["late"]} == {"s1/combiner-1.0"}
    # No engines yet: still one (empty) leaf, serving an empty tree.
    empty = MergeTree("s1", None)
    assert empty.depth == 1 and empty.n_engines == 0
    assert empty.poll_latency(COST) == 0.0
    assert empty.root_tree.to_dict() == ObjectTree().to_dict()


def test_late_engine_routes_to_contiguous_leaf():
    tier = MergeTree("s1", 2, plan_groups(["e0", "e2", "e4", "e6"], 2))
    # "e3" sorts between e2 and e4: it must join e2's leaf so the global
    # sorted order stays contiguous per leaf.
    assert tier.combiner_of("e3") == tier.combiner_of("e2")
    assert tier.combiner_of("e7") == tier.combiner_of("e6")
    # Below every low bound: routed to the first leaf.
    assert tier.combiner_of("a0") == tier.combiner_of("e0")


def test_configure_tier_without_fan_in_plans_one_leaf():
    env = Environment()
    flat = AIDAManagerService(env, merge_cost_per_tree=COST)
    assert flat.tier("s1") is None
    assert flat.combiner_of("s1", "e0") is None  # no tree yet
    tier = flat.configure_tier("s1", ["e0", "e1", "e2"])
    assert tier is flat.tier("s1")
    assert tier.depth == 1
    assert flat.combiner_of("s1", "e0") == flat.combiner_of("s1", "e2")
    # Idempotent, and a tree grown from early snapshots is already that
    # one leaf: planning afterwards keeps it (and what it folded).
    assert flat.configure_tier("s1", ["e0", "e1", "e2", "e3"]) is tier
    early = AIDAManagerService(env, merge_cost_per_tree=COST)
    early.submit_snapshot("s1", snap("e1", 1, dyadic_tree([1])))
    env.run(until=early.merged("s1"))
    grown = early.tier("s1")
    assert early.configure_tier("s1", ["e0", "e1", "e2"]) is grown
    assert not grown.dirty_engines
    # A closed session is never re-planned.
    flat.drop_session("s1")
    assert flat.configure_tier("s1", ["e0"]) is None


def test_configure_tier_is_idempotent_and_migrates_flat_state():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=COST, fan_in=2)
    # Snapshot lands before the session layer wires the topology.
    manager.submit_snapshot("s1", snap("e0", 1, dyadic_tree([1, 2])))
    tier = manager.configure_tier("s1", ["e0", "e1", "e2"])
    assert tier is manager.configure_tier("s1", ["e0", "e1", "e2"])
    assert tier.depth == 2
    assert tier.engine_entry("e0").snapshot.sequence == 1
    tree_dict, progress = env.run(until=manager.merged("s1"))
    assert tree_dict == reference_merge({"e0": dyadic_tree([1, 2])})
    assert progress.engines_reporting == 1


# -- latency model ----------------------------------------------------------

def test_all_dirty_poll_costs_f_log_f_not_n():
    env, flat, tiered, ids = build_pair(64, 4)
    for i, engine_id in enumerate(ids):
        payload = dyadic_tree([i, i + 1])
        flat.submit_snapshot("s1", snap(engine_id, 1, payload))
        tiered.submit_snapshot("s1", snap(engine_id, 1, payload))
    tier = tiered.tier("s1")
    # Levels hold 16/4/1 combiners folding at most 4 inputs each: the
    # all-dirty poll charges 4+4+4 = 12 tree-merges, not 64.
    assert tier.poll_latency(COST) == pytest.approx(12 * COST)
    assert flat.tier("s1").poll_latency(COST) == pytest.approx(64 * COST)


def test_single_dirty_engine_costs_one_fold_per_level():
    env, _, tiered, ids = build_pair(64, 4)
    for i, engine_id in enumerate(ids):
        tiered.submit_snapshot("s1", snap(engine_id, 1, dyadic_tree([i])))
    env.run(until=tiered.merged("s1"))
    tier = tiered.tier("s1")
    assert tier.poll_latency(COST) == 0.0
    delta = {"objects": dyadic_tree([7])["objects"]}
    tiered.submit_snapshot("s1", snap(ids[7], 2, delta, base=1))
    assert tier.poll_latency(COST) == pytest.approx(tier.depth * COST)


def test_merge_latency_incremental_accounts_for_fan_in():
    """64 engines at fan-in 4 are 3 levels; each charges its busiest
    combiner's dirty children, and levels run in sequence."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.1, fan_in=4)
    ids = [f"e{i:02d}" for i in range(64)]
    tier = manager.configure_tier("s1", ids)
    for engine_id in ids:
        manager.submit_snapshot("s1", snap(engine_id, 1, dyadic_tree([1])))
    assert tier.poll_latency(0.1) == pytest.approx(0.1 * 4 * 3)  # all dirty
    env.run(until=manager.merged("s1"))
    delta = {"objects": dyadic_tree([2])["objects"]}
    manager.submit_snapshot("s1", snap(ids[0], 2, dict(delta), base=1))
    assert tier.poll_latency(0.1) == pytest.approx(0.3)  # one fold per level
    # A second dirty engine under the same leaf: that leaf folds two.
    manager.submit_snapshot("s1", snap(ids[1], 2, dict(delta), base=1))
    assert tier.poll_latency(0.1) == pytest.approx(0.4)
    # One under another leaf of the same parent: the leaves fold
    # concurrently (max 2), their parent folds two children.
    manager.submit_snapshot("s1", snap(ids[4], 2, dict(delta), base=1))
    assert tier.poll_latency(0.1) == pytest.approx(0.2 + 0.2 + 0.1)
    started = env.now
    env.run(until=manager.merged("s1"))
    assert env.now - started == pytest.approx(0.5)


# -- correctness: tiered == flat -------------------------------------------

def test_tiered_merge_is_exactly_equal_to_flat_merge():
    env, flat, tiered, ids = build_pair(27, 3)
    for i, engine_id in enumerate(ids):
        payload = dyadic_tree([i, 2 * i, 3 * i])
        flat.submit_snapshot("s1", snap(engine_id, 1, payload))
        tiered.submit_snapshot("s1", snap(engine_id, 1, payload))
    flat_tree, flat_progress = env.run(until=flat.merged("s1"))
    tiered_tree, tiered_progress = env.run(until=tiered.merged("s1"))
    assert tiered_tree == flat_tree
    assert tiered_progress.engines_reporting == flat_progress.engines_reporting
    # Deltas keep them in lockstep.
    delta = {"objects": dyadic_tree([5])["objects"]}
    flat.submit_snapshot("s1", snap(ids[5], 2, dict(delta), base=1))
    tiered.submit_snapshot("s1", snap(ids[5], 2, dict(delta), base=1))
    flat_tree, _ = env.run(until=flat.merged("s1"))
    tiered_tree, _ = env.run(until=tiered.merged("s1"))
    assert tiered_tree == flat_tree


def test_discard_engine_removes_contribution_from_tier():
    env, flat, tiered, ids = build_pair(9, 2)
    for i, engine_id in enumerate(ids):
        payload = dyadic_tree([i])
        flat.submit_snapshot("s1", snap(engine_id, 1, payload))
        tiered.submit_snapshot("s1", snap(engine_id, 1, payload))
    flat.discard_engine("s1", ids[4])
    tiered.discard_engine("s1", ids[4])
    flat_tree, _ = env.run(until=flat.merged("s1"))
    tiered_tree, _ = env.run(until=tiered.merged("s1"))
    assert tiered_tree == flat_tree
    # Banned: late submissions never reach the tier.
    assert tiered.submit_snapshot("s1", snap(ids[4], 2, dyadic_tree([9]))) == (
        "dropped"
    )


def test_rewind_resets_tier_but_keeps_topology():
    env, _, tiered, ids = build_pair(8, 2)
    for i, engine_id in enumerate(ids):
        tiered.submit_snapshot("s1", snap(engine_id, 1, dyadic_tree([i])))
    env.run(until=tiered.merged("s1"))
    tier = tiered.tier("s1")
    depth = tier.depth
    tiered.begin_run("s1", 1)
    assert tiered.tier("s1") is tier
    assert tier.depth == depth
    assert not tier.dirty_engines
    tree_dict, _ = env.run(until=tiered.merged("s1"))
    assert tree_dict == ObjectTree().to_dict()


# -- combiner failures ------------------------------------------------------

def test_leaf_combiner_crash_forces_resync_and_heals():
    env, flat, tiered, ids = build_pair(8, 2)
    for i, engine_id in enumerate(ids):
        payload = dyadic_tree([i, i + 3])
        flat.submit_snapshot("s1", snap(engine_id, 1, payload))
        tiered.submit_snapshot("s1", snap(engine_id, 1, payload))
    flat_tree, _ = env.run(until=flat.merged("s1"))
    env.run(until=tiered.merged("s1"))
    victim = tiered.combiner_of("s1", ids[0])
    affected = tiered.crash_combiner("s1", victim)
    assert affected == sorted(ids[:2])
    # A delta on a lost cache is answered with "resync".
    delta = {"objects": dyadic_tree([0])["objects"]}
    assert tiered.submit_snapshot("s1", snap(ids[0], 2, delta, base=1)) == (
        "resync"
    )
    # The served tree honestly drops the lost contributions...
    partial_tree, _ = env.run(until=tiered.merged("s1"))
    assert partial_tree != flat_tree
    # ...and heals once the affected engines republish keyframes.
    for i, engine_id in enumerate(affected):
        tiered.submit_snapshot(
            "s1", snap(engine_id, 3, dyadic_tree([i, i + 3]))
        )
    healed_tree, _ = env.run(until=tiered.merged("s1"))
    assert healed_tree == flat_tree


def test_leaf_combiner_crash_is_not_reported_complete():
    """Progress counts exactly the engines the tree folds: after a leaf
    loses two of four *final* engines, a poll taken before the republished
    keyframes land must not present half a histogram as the final result."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=COST, fan_in=2)
    ids = ["e0", "e1", "e2", "e3"]
    manager.configure_tier("s1", ids)
    manager.set_expected_engines("s1", 4)
    for i, engine_id in enumerate(ids):
        manager.submit_snapshot(
            "s1", snap(engine_id, 1, dyadic_tree([i]), final=True)
        )
    whole, progress = env.run(until=manager.merged("s1"))
    assert progress.complete and progress.final_engines == 4
    lost = manager.crash_combiner("s1", manager.combiner_of("s1", "e0"))
    assert lost == ["e0", "e1"]
    assert manager.snapshot_count("s1") == 2
    half, progress = env.run(until=manager.merged("s1"))
    assert half == reference_merge(
        {e: dyadic_tree([i]) for i, e in enumerate(ids) if e not in lost}
    )
    assert progress.engines_reporting == 2
    assert progress.final_engines == 2
    assert progress.events_processed == 20
    assert not progress.complete
    # The resync handshake is unchanged: deltas on the lost entries are
    # refused, the republished keyframes heal tree and progress together.
    delta = {"objects": dyadic_tree([0])["objects"]}
    assert manager.submit_snapshot(
        "s1", snap("e0", 2, delta, base=1, final=True)
    ) == "resync"
    for i, engine_id in enumerate(lost):
        assert manager.submit_snapshot(
            "s1", snap(engine_id, 3, dyadic_tree([i]), final=True)
        ) == "accepted"
    healed, progress = env.run(until=manager.merged("s1"))
    assert healed == whole
    assert progress.complete and progress.engines_reporting == 4


def test_internal_combiner_crash_rebuilds_without_engine_resync():
    env, flat, tiered, ids = build_pair(16, 2)
    for i, engine_id in enumerate(ids):
        payload = dyadic_tree([i])
        flat.submit_snapshot("s1", snap(engine_id, 1, payload))
        tiered.submit_snapshot("s1", snap(engine_id, 1, payload))
    flat_tree, _ = env.run(until=flat.merged("s1"))
    env.run(until=tiered.merged("s1"))
    tier = tiered.tier("s1")
    internal = tier.levels[1][0].combiner_id
    assert tiered.crash_combiner("s1", internal) == []
    rebuilt_tree, _ = env.run(until=tiered.merged("s1"))
    assert rebuilt_tree == flat_tree


def test_crash_unknown_combiner_raises():
    env, _, tiered, _ = build_pair(4, 2)
    with pytest.raises(CombinerError):
        tiered.crash_combiner("s1", "s1/combiner-9.9")
    untouched = AIDAManagerService(env, merge_cost_per_tree=COST)
    with pytest.raises(MergeError):
        untouched.crash_combiner("s1", "anything")


def test_retire_leaf_reparents_engines_and_preserves_tree():
    env, flat, tiered, ids = build_pair(9, 2)
    for i, engine_id in enumerate(ids):
        payload = dyadic_tree([i, 7 * i])
        flat.submit_snapshot("s1", snap(engine_id, 1, payload))
        tiered.submit_snapshot("s1", snap(engine_id, 1, payload))
    flat_tree, _ = env.run(until=flat.merged("s1"))
    env.run(until=tiered.merged("s1"))
    victim = tiered.combiner_of("s1", ids[2])
    target = tiered.retire_combiner("s1", victim)
    assert tiered.combiner_of("s1", ids[2]) == target
    retired_tree, _ = env.run(until=tiered.merged("s1"))
    assert retired_tree == flat_tree
    # Deltas keep flowing through the new parent.
    delta = {"objects": dyadic_tree([2])["objects"]}
    assert tiered.submit_snapshot("s1", snap(ids[2], 2, delta, base=1)) == (
        "accepted"
    )
    flat.submit_snapshot("s1", snap(ids[2], 2, dict(delta), base=1))
    flat_tree, _ = env.run(until=flat.merged("s1"))
    tiered_tree, _ = env.run(until=tiered.merged("s1"))
    assert tiered_tree == flat_tree


def test_retire_only_leaf_is_rejected():
    tier = MergeTree("s1", 2, [["e0", "e1"]])
    with pytest.raises(CombinerError):
        tier.retire_combiner(tier.levels[0][0].combiner_id)


# -- durability and hygiene -------------------------------------------------

def test_checkpoint_restore_rebuilds_tier_bit_identically():
    env, _, tiered, ids = build_pair(9, 2)
    for i, engine_id in enumerate(ids):
        tiered.submit_snapshot("s1", snap(engine_id, 1, dyadic_tree([i, i])))
    before, _ = env.run(until=tiered.merged("s1"))
    state = tiered.checkpoint_state("s1")
    assert state["tier_groups"] == tiered.tier("s1").leaf_groups()
    tiered.crash()
    tiered.restart()
    tiered.restore_state("s1", state)
    tier = tiered.tier("s1")
    assert tier is not None
    assert len(tier.dirty_engines) == len(ids)
    after, _ = env.run(until=tiered.merged("s1"))
    assert after == before


@pytest.mark.parametrize("fan_in", [None, 2])
def test_drop_session_leaves_no_state_at_any_depth(fan_in):
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=COST, fan_in=fan_in)
    ids = ["e0", "e1", "e2", "e3"]
    # Closed before the first snapshot: only the planned tree to release.
    manager.configure_tier("early", ids)
    manager.set_expected_engines("early", 4)
    assert manager.session_cache_keys("early") == ["expected", "tiers"]
    manager.drop_session("early")
    assert manager.session_cache_keys("early") == []
    # Closed mid-run, with a poll in flight and an engine quarantined.
    manager.configure_tier("s1", ids)
    for engine_id in ids:
        manager.submit_snapshot("s1", snap(engine_id, 1, dyadic_tree([1])))
    manager.discard_engine("s1", "e3")
    manager.begin_run("s1", 1)
    poll = manager.merged("s1", client_id="c1")
    manager.drop_session("s1")
    tree_dict, progress = env.run(until=poll)
    assert tree_dict == ObjectTree().to_dict()
    assert progress.engines_reporting == 0
    assert manager.session_cache_keys("s1") == []


def test_drop_session_releases_tier_state():
    env, _, tiered, ids = build_pair(4, 2)
    tiered.submit_snapshot("s1", snap(ids[0], 1, dyadic_tree([1])))
    assert "tiers" in tiered.session_cache_keys("s1")
    tiered.drop_session("s1")
    assert tiered.session_cache_keys("s1") == []
    # Zombie snapshot after close must not resurrect the tier.
    assert tiered.submit_snapshot("s1", snap(ids[1], 1, dyadic_tree([2]))) == (
        "dropped"
    )
    assert tiered.tier("s1") is None


# -- end to end -------------------------------------------------------------

def build_site(**site_kwargs):
    site = GridSite(SiteConfig(n_workers=4, **site_kwargs))
    site.register_dataset(
        "ds-small",
        "/test/ds-small",
        size_mb=20.0,
        n_events=2_000,
        metadata={"experiment": "ilc", "energy": 500},
        content={"kind": "ilc", "seed": 42},
    )
    user = site.enroll_user("/O=ILC/CN=alice")
    return site, IPAClient(site, user)


def run_scenario(site, client):
    results = {}

    def scenario():
        yield from client.obtain_proxy_and_connect()
        yield from client.select_dataset("ds-small")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=2.0)
        results["tree"] = final.tree
        results["progress"] = final.progress
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    return results


def test_site_run_with_merge_tier_matches_flat():
    flat_results = run_scenario(*build_site())
    tiered_results = run_scenario(*build_site(merge_fan_in=2))
    assert tiered_results["progress"].complete
    flat_mass = flat_results["tree"].get("/higgs/dijet_mass")
    tiered_mass = tiered_results["tree"].get("/higgs/dijet_mass")
    # Bin *entries* are integers: exact under any fold association.
    assert tiered_mass.all_entries == flat_mass.all_entries
    n_bins = flat_mass.axis.bins
    np.testing.assert_array_equal(
        np.asarray([tiered_mass.bin_entries(i) for i in range(n_bins)]),
        np.asarray([flat_mass.bin_entries(i) for i in range(n_bins)]),
    )
    np.testing.assert_allclose(
        tiered_mass.heights(), flat_mass.heights(), rtol=1e-9
    )


def test_site_tier_is_wired_and_snapshots_are_stamped():
    site, client = build_site(merge_fan_in=2, enable_observability=True)
    done = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect()
        done["session"] = info.session_id
        yield from client.select_dataset("ds-small")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        yield from client.wait_for_completion(poll_interval=2.0)
        tier = site.aida.tier(info.session_id)
        assert tier is not None
        assert tier.depth >= 2
        entries = tier.entries()
        assert entries, "engines reported"
        for engine_id, entry in entries.items():
            assert entry.snapshot.combiner == tier.combiner_of(engine_id)
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    kinds = [e.kind for e in site.obs.events.events()]
    assert "tier_configured" in kinds
