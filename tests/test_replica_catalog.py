"""Unit tests for the replica subsystem: catalog, node cache, selector,
and the manager facade (classification, alignment, invalidation)."""

import pytest

from repro.grid.network import Network
from repro.grid.nodes import NodeSpec, StorageElement, WorkerNode
from repro.replica import (
    NodeCache,
    ReplicaCatalog,
    ReplicaError,
    ReplicaManager,
    ReplicaSelector,
)
from repro.services.locator import DatasetLocation
from repro.services.splitter import PartDescriptor
from repro.sim import Environment


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def test_catalog_register_and_lookup():
    catalog = ReplicaCatalog()
    key = catalog.part_key("ds", "by-events", 4, 0, 0, 250)
    catalog.register(key, "ds", "w0", 10.0, now=1.0)
    assert catalog.has(key, "w0")
    assert not catalog.has(key, "w1")
    assert [r.host for r in catalog.holders(key)] == ["w0"]
    assert len(catalog) == 1


def test_catalog_keys_pin_geometry():
    catalog = ReplicaCatalog()
    four = catalog.part_key("ds", "by-events", 4, 0, 0, 250)
    eight = catalog.part_key("ds", "by-events", 8, 0, 0, 125)
    bybytes = catalog.part_key("ds", "by-bytes", 4, 0, 0, 250)
    assert len({four, eight, bybytes}) == 3


def test_catalog_unregister_fires_hooks_once():
    catalog = ReplicaCatalog()
    seen = []
    catalog.add_invalidation_hook(lambda r, reason: seen.append(reason))
    catalog.register("k", "ds", "w0", 1.0)
    assert catalog.unregister("k", "w0", reason="eviction")
    assert not catalog.unregister("k", "w0")  # second removal finds nothing
    assert seen == ["eviction"]


def test_catalog_invalidate_host():
    catalog = ReplicaCatalog()
    catalog.register("a", "ds", "w0", 1.0)
    catalog.register("b", "ds", "w0", 1.0)
    catalog.register("a", "ds", "w1", 1.0)
    assert catalog.invalidate_host("w0") == 2
    assert [r.host for r in catalog.holders("a")] == ["w1"]


def test_catalog_rejects_negative_size():
    with pytest.raises(ReplicaError):
        ReplicaCatalog().register("k", "ds", "w0", -1.0)


# ---------------------------------------------------------------------------
# NodeCache
# ---------------------------------------------------------------------------

def test_cache_lru_eviction_order():
    evicted = []
    cache = NodeCache(
        "w0", capacity_mb=20.0,
        on_evict=lambda node, key, reason: evicted.append((key, reason)),
    )
    assert cache.put("a", 10.0, now=0.0)
    assert cache.put("b", 10.0, now=1.0)
    cache.touch("a", now=2.0)  # b is now the least recently used
    assert cache.put("c", 10.0, now=3.0)
    assert evicted == [("b", "capacity")]
    assert sorted(cache.keys()) == ["a", "c"]
    assert cache.used_mb == pytest.approx(20.0)


def test_cache_pinned_entries_block_capacity_eviction():
    cache = NodeCache("w0", capacity_mb=10.0)
    assert cache.put("a", 10.0, now=0.0, pin="s1")
    assert not cache.put("b", 10.0, now=1.0)  # cannot make room
    assert "a" in cache
    cache.unpin_session("s1")
    assert cache.put("b", 10.0, now=2.0)
    assert cache.keys() == ["b"]


def test_cache_oversized_object_rejected():
    cache = NodeCache("w0", capacity_mb=5.0)
    assert not cache.put("huge", 6.0, now=0.0)
    assert len(cache) == 0


def test_cache_remove_overrides_pins():
    cache = NodeCache("w0")
    cache.put("a", 1.0, now=0.0, pin="s1")
    assert cache.remove("a", reason="node-failure")
    assert "a" not in cache


def test_cache_put_refreshes_existing_entry():
    cache = NodeCache("w0", capacity_mb=10.0)
    cache.put("a", 4.0, now=0.0)
    assert cache.put("a", 6.0, now=4.0, pin="s2")
    assert cache.entry("a").last_used == 4.0
    assert cache.entry("a").pins == {"s2"}
    assert cache.used_mb == 6.0 and len(cache) == 1


# ---------------------------------------------------------------------------
# Selector
# ---------------------------------------------------------------------------

def star_network(env, n_workers=3):
    net = Network(env)
    net.add_host("se")
    for i in range(n_workers):
        name = f"w{i}"
        net.add_host(name)
        net.add_link(f"se-{name}", "se", name, bandwidth=7.6, latency=0.001)
    return net


def test_selector_charges_se_its_own_spindle_read():
    env = Environment()
    selector = ReplicaSelector(star_network(env), "se", se_disk_mbps=10.24)
    # Even with nothing queued, serving from the SE costs the serial
    # spindle read of the part itself; a peer cache skips the disk arm
    # entirely, so it wins whenever the extra LAN hop is cheaper.
    choice = selector.choose("w0", 10.0, ["se", "w1"], queued_se_mb=0.0)
    assert choice.host == "w1"
    se_est = selector.estimate("se", "w0", 10.0, queued_se_mb=0.0)
    assert se_est.backlog_s == pytest.approx(10.0 / 10.24)
    # The SE is still chosen when it is the only reachable source.
    assert selector.choose("w0", 10.0, ["se"]).host == "se"


def test_selector_peer_wins_once_spindle_backlog_builds():
    env = Environment()
    selector = ReplicaSelector(star_network(env), "se", se_disk_mbps=10.24)
    choice = selector.choose("w0", 10.0, ["se", "w1"], queued_se_mb=100.0)
    assert choice.host == "w1"
    se_est = selector.estimate("se", "w0", 10.0, queued_se_mb=100.0)
    assert se_est.backlog_s == pytest.approx(110.0 / 10.24)


def test_selector_unreachable_candidate_dropped():
    env = Environment()
    net = star_network(env)
    selector = ReplicaSelector(net, "se", se_disk_mbps=10.24)
    net.fail_links_of("w1")
    choice = selector.choose("w0", 10.0, ["se", "w1"])
    assert choice.host == "se"
    assert selector.estimate("w1", "w0", 10.0) is None
    assert set(selector.rank("w0", 10.0, ["se", "w1"])) == {"se"}


# ---------------------------------------------------------------------------
# Manager
# ---------------------------------------------------------------------------

class _Ref:
    """Stand-in for an EngineReference (only .worker is consulted)."""

    def __init__(self, worker):
        self.worker = worker

    def __repr__(self):
        return f"_Ref({self.worker})"


def build_manager(n_workers=4, capacity_mb=None):
    env = Environment()
    net = star_network(env, n_workers)
    se = StorageElement(env, "se", NodeSpec())
    workers = [WorkerNode(env, f"w{i}", NodeSpec()) for i in range(n_workers)]
    manager = ReplicaManager(env, net, se, workers, capacity_mb=capacity_mb)
    return env, manager, workers


def make_location(size_mb=40.0, n_events=400, origin="repository"):
    return DatasetLocation(
        dataset_id="ds",
        kind="gridftp",
        host="se",
        path="/store/ds.ipad",
        size_mb=size_mb,
        n_events=n_events,
        splitter_host="se",
        origin_host=origin,
    )


def make_parts(workers, size_mb=10.0, events_each=100):
    return [
        PartDescriptor(
            part_index=i,
            start_event=i * events_each,
            stop_event=(i + 1) * events_each,
            size_mb=size_mb,
            worker=w,
        )
        for i, w in enumerate(workers)
    ]


def test_manager_cold_plan_is_fully_cold():
    env, manager, workers = build_manager()
    parts = make_parts([w.name for w in workers])
    plan = manager.plan_sources(make_location(), "by-events", parts)
    assert plan.fully_cold
    assert len(plan.missing) == 4


def test_manager_classification_local_se_and_missing():
    env, manager, workers = build_manager()
    location = make_location()
    parts = make_parts([w.name for w in workers])
    keys = manager.part_keys("ds", "by-events", parts)
    # w0 caches part 0; the SE holds a part file for part 1; 2/3 are cold.
    manager.record_worker_part("ds", keys[0], "w0", 10.0)
    manager.record_se_part("ds", keys[1], 10.0)
    plan = manager.plan_sources(location, "by-events", parts, keys)
    kinds = [s.kind for s in plan.sources]
    assert kinds == ["local", "se", "missing", "missing"]
    assert not plan.fully_cold


def test_manager_alignment_sends_parts_to_their_holders():
    env, manager, workers = build_manager()
    parts = make_parts([w.name for w in workers])
    keys = manager.part_keys("ds", "by-events", parts)
    # w3 holds part 0's bytes, w0 holds part 3's: alignment must swap them.
    manager.record_worker_part("ds", keys[0], "w3", 10.0)
    manager.record_worker_part("ds", keys[3], "w0", 10.0)
    refs = [_Ref(w.name) for w in workers]
    aligned = manager.align_references(refs, keys)
    assert [r.worker for r in aligned] == ["w3", "w1", "w2", "w0"]
    # All-cold alignment is the identity permutation.
    cold_keys = manager.part_keys("other", "by-events", parts)
    assert manager.align_references(refs, cold_keys) == refs


def test_manager_failed_worker_is_never_a_source():
    env, manager, workers = build_manager()
    parts = make_parts([w.name for w in workers])
    keys = manager.part_keys("ds", "by-events", parts)
    manager.record_worker_part("ds", keys[0], "w0", 10.0)
    workers[0].failed = True
    assert not manager.worker_has("w0", keys[0])
    plan = manager.plan_sources(make_location(), "by-events", parts, keys)
    assert plan.sources[0].kind == "missing"


def test_manager_invalidate_host_clears_cache_and_catalog():
    env, manager, workers = build_manager()
    parts = make_parts([w.name for w in workers])
    keys = manager.part_keys("ds", "by-events", parts)
    manager.record_worker_part("ds", keys[0], "w0", 10.0)
    manager.record_worker_part("ds", keys[1], "w0", 10.0)
    assert manager.invalidate_host("w0") == 2
    assert len(manager.caches["w0"]) == 0
    assert manager.catalog.holders(keys[0]) == []


def test_manager_eviction_unregisters_catalog_replica():
    env, manager, workers = build_manager(capacity_mb=10.0)
    parts = make_parts([w.name for w in workers])
    keys = manager.part_keys("ds", "by-events", parts)
    manager.record_worker_part("ds", keys[0], "w0", 10.0)
    env.run(until=1.0)
    manager.record_worker_part("ds", keys[1], "w0", 10.0)  # evicts part 0
    assert manager.catalog.holders(keys[0]) == []
    assert manager.catalog.has(keys[1], "w0")


def test_manager_has_whole_and_record_whole():
    env, manager, workers = build_manager()
    se_resident = make_location(origin=None)
    fetched = make_location(origin="repository")
    assert manager.has_whole(se_resident)
    assert not manager.has_whole(fetched)
    manager.record_whole(fetched)
    assert manager.has_whole(fetched)


def test_manager_preferred_workers_ranked_by_cached_mb():
    env, manager, workers = build_manager()
    parts = make_parts([w.name for w in workers])
    keys = manager.part_keys("ds", "by-events", parts)
    manager.record_worker_part("ds", keys[0], "w2", 10.0)
    manager.record_worker_part("ds", keys[1], "w2", 10.0)
    manager.record_worker_part("ds", keys[2], "w1", 10.0)
    assert manager.preferred_workers("ds") == ["w2", "w1"]
    workers[2].failed = True
    assert manager.preferred_workers("ds") == ["w1"]


def test_manager_session_pins_released_on_unpin():
    env, manager, workers = build_manager(capacity_mb=10.0)
    parts = make_parts([w.name for w in workers])
    keys = manager.part_keys("ds", "by-events", parts)
    manager.record_worker_part("ds", keys[0], "w0", 10.0, session_id="s1")
    # Pinned: a competing part cannot evict it.
    assert not manager.record_worker_part("ds", keys[1], "w0", 10.0)
    manager.unpin_session("s1")
    assert manager.record_worker_part("ds", keys[1], "w0", 10.0)
