"""Unit tests for locator, splitter, content store, registry, code loader,
and the AIDA manager."""

import numpy as np
import pytest

from repro.aida.tree import ObjectTree
from repro.dataset.events import EventBatch
from repro.engine.engine import AnalysisEngine, Snapshot
from repro.engine.sandbox import CodeBundle
from repro.grid.network import Network
from repro.grid.nodes import ManagerNode, NodeSpec, StorageElement, WorkerNode
from repro.grid.transfer import GridFTPService
from repro.services.aida_manager import AIDAManagerService
from repro.services.codeloader import CodeLoaderError, ManagingClassLoaderService
from repro.services.content import BLOCK_EVENTS, ContentError, ContentStore
from repro.services.locator import DatasetLocation, LocatorError, LocatorService
from repro.services.registry import (
    EngineReference,
    RegistryError,
    WorkerRegistryService,
)
from repro.services.splitter import SplitterError, SplitterService
from repro.sim import Environment, Store


FAST_DISK = NodeSpec(disk_read_mbps=10_000, disk_write_mbps=10_000)


def build_site(n_workers=4):
    env = Environment()
    net = Network(env)
    net.add_host("se")
    net.add_host("mgr")
    net.add_link("se-mgr", "se", "mgr", bandwidth=7.5)
    se = StorageElement(env, "se", NodeSpec(disk_read_mbps=10.24, disk_write_mbps=10.24))
    mgr = ManagerNode(env, "mgr", FAST_DISK)
    workers = []
    for i in range(n_workers):
        name = f"w{i}"
        net.add_host(name)
        net.add_link(f"se-{name}", "se", name, bandwidth=7.6)
        net.add_link(f"mgr-{name}", "mgr", name, bandwidth=7.6)
        workers.append(WorkerNode(env, name, FAST_DISK))
    ftp = GridFTPService(env, net, setup_overhead=0.0)
    return env, net, se, mgr, workers, ftp


def location(size_mb=471.0, n_events=10_000):
    return DatasetLocation(
        dataset_id="zh500",
        kind="gridftp",
        host="se",
        path="/store/zh500.ipad",
        size_mb=size_mb,
        n_events=n_events,
        splitter_host="se",
    )


# ---------------------------------------------------------------------------
# Locator
# ---------------------------------------------------------------------------

def test_locator_roundtrip():
    service = LocatorService()
    loc = location()
    service.add_location(loc)
    assert service.locate("zh500") is loc
    assert len(service) == 1


def test_locator_unknown_id():
    with pytest.raises(LocatorError):
        LocatorService().locate("ghost")


def test_locator_duplicate_and_bad_kind():
    service = LocatorService()
    service.add_location(location())
    with pytest.raises(LocatorError, match="already"):
        service.add_location(location())
    with pytest.raises(LocatorError, match="kind"):
        service.add_location(
            DatasetLocation("x", "carrier-pigeon", "se", "/x", 1, 1, "se")
        )


# ---------------------------------------------------------------------------
# Splitter
# ---------------------------------------------------------------------------

def test_splitter_plan_by_events():
    env, net, se, mgr, workers, ftp = build_site(4)
    splitter = SplitterService(env, se, ftp)
    parts = splitter.plan_parts(location(), [w.name for w in workers])
    assert [p.n_events for p in parts] == [2500] * 4
    assert sum(p.size_mb for p in parts) == pytest.approx(471.0)
    assert [p.worker for p in parts] == ["w0", "w1", "w2", "w3"]


def test_splitter_plan_by_bytes_with_weights():
    env, net, se, mgr, workers, ftp = build_site(2)
    weights = np.concatenate([np.ones(5000), 3 * np.ones(5000)])
    splitter = SplitterService(env, se, ftp)
    parts = splitter.plan_parts(
        location(), ["w0", "w1"], strategy="by-bytes", event_weights=weights
    )
    # Half the bytes: boundary should fall inside the heavy half.
    assert parts[0].n_events > parts[1].n_events
    assert parts[0].size_mb == pytest.approx(parts[1].size_mb, rel=0.01)


def test_splitter_plan_validation():
    env, net, se, mgr, workers, ftp = build_site(1)
    splitter = SplitterService(env, se, ftp)
    with pytest.raises(SplitterError):
        splitter.plan_parts(location(), [])
    with pytest.raises(SplitterError):
        splitter.plan_parts(location(), ["w0"], strategy="magic")
    with pytest.raises(SplitterError):
        splitter.plan_parts(
            location(), ["w0"], strategy="by-bytes", event_weights=np.ones(5)
        )


def test_splitter_split_time_matches_model():
    env, net, se, mgr, workers, ftp = build_site(4)
    splitter = SplitterService(env, se, ftp, split_rate=0.25, per_file_overhead=0.2)
    report = env.run(until=splitter.split_and_scatter(location(), workers))
    assert report.split_seconds == pytest.approx(471 * 0.25 + 4 * 0.2)
    assert len(report.parts) == 4
    # Workers received their part files.
    for index, worker in enumerate(workers):
        assert worker.has_file(f"zh500.part{index}")


def test_splitter_move_parts_shape():
    durations = {}
    for n in (1, 16):
        env, net, se, mgr, workers, ftp = build_site(n)
        splitter = SplitterService(env, se, ftp, split_rate=0.25, per_file_overhead=0.0)
        report = env.run(until=splitter.split_and_scatter(location(), workers))
        durations[n] = report.move_parts_seconds
    # Table 2 shape: ~46 + 62/N.
    assert durations[1] == pytest.approx(46 + 62, rel=0.05)
    assert durations[16] == pytest.approx(46 + 62 / 16, rel=0.08)


# ---------------------------------------------------------------------------
# ContentStore
# ---------------------------------------------------------------------------

def test_content_deterministic():
    store = ContentStore()
    content = {"kind": "ilc", "seed": 5}
    a = store.events_for(content, 100, 200)
    b = ContentStore().events_for(content, 100, 200)
    assert np.array_equal(a.e, b.e)
    assert len(a) == 100


def test_content_range_consistency_across_blocks():
    store = ContentStore()
    content = {"kind": "ilc", "seed": 5}
    span = store.events_for(content, BLOCK_EVENTS - 50, BLOCK_EVENTS + 50)
    left = store.events_for(content, BLOCK_EVENTS - 50, BLOCK_EVENTS)
    right = store.events_for(content, BLOCK_EVENTS, BLOCK_EVENTS + 50)
    rejoined = EventBatch.concatenate([left, right])
    assert np.array_equal(span.e, rejoined.e)
    assert np.array_equal(span.event_ids, rejoined.event_ids)


def test_content_event_ids_match_range():
    store = ContentStore()
    batch = store.events_for({"kind": "ilc", "seed": 1}, 500, 600)
    assert list(batch.event_ids) == list(range(500, 600))


def test_content_disjoint_parts_cover_whole():
    store = ContentStore()
    content = {"kind": "ilc", "seed": 9}
    whole = store.events_for(content, 0, 1000)
    parts = [store.events_for(content, i * 250, (i + 1) * 250) for i in range(4)]
    rejoined = EventBatch.concatenate(parts)
    assert np.array_equal(whole.e, rejoined.e)


def test_content_signal_fraction():
    store = ContentStore()
    pure = store.events_for({"kind": "ilc", "seed": 2, "signal_fraction": 1.0}, 0, 500)
    assert np.all(pure.process == 0)
    none = store.events_for({"kind": "ilc", "seed": 2, "signal_fraction": 0.0}, 0, 500)
    assert np.all(none.process != 0)
    with pytest.raises(ContentError):
        store.events_for({"kind": "ilc", "seed": 2, "signal_fraction": 2.0}, 0, 10)


def test_content_trading_kind():
    store = ContentStore()
    batch = store.events_for({"kind": "trading", "seed": 3, "trades_per_day": 10}, 0, 50)
    assert len(batch) == 50
    assert batch.n_particles == 500


def test_content_validation():
    store = ContentStore()
    with pytest.raises(ContentError):
        store.events_for({"kind": "unknown"}, 0, 10)
    with pytest.raises(ContentError):
        store.events_for({"kind": "ilc"}, 10, 5)
    assert len(store.events_for({"kind": "ilc", "seed": 0}, 5, 5)) == 0


# ---------------------------------------------------------------------------
# WorkerRegistry
# ---------------------------------------------------------------------------

def test_registry_register_and_wait():
    env = Environment()
    registry = WorkerRegistryService(env)
    arrived = []

    def engines_come_up():
        for i in range(3):
            yield env.timeout(1.0)
            registry.register(
                EngineReference(f"e{i}", "s1", f"w{i}", Store(env))
            )

    def waiter():
        refs = yield registry.wait_for("s1", 3)
        arrived.append((env.now, [r.engine_id for r in refs]))

    env.process(engines_come_up())
    env.process(waiter())
    env.run()
    assert arrived == [(3.0, ["e0", "e1", "e2"])]
    assert registry.count("s1") == 3


def test_registry_wait_already_met():
    env = Environment()
    registry = WorkerRegistryService(env)
    registry.register(EngineReference("e0", "s1", "w0", Store(env)))
    event = registry.wait_for("s1", 1)
    assert event.triggered


def test_registry_duplicate_rejected():
    env = Environment()
    registry = WorkerRegistryService(env)
    registry.register(EngineReference("e0", "s1", "w0", Store(env)))
    with pytest.raises(RegistryError):
        registry.register(EngineReference("e0", "s1", "w0", Store(env)))


def test_registry_sessions_isolated():
    env = Environment()
    registry = WorkerRegistryService(env)
    registry.register(EngineReference("e0", "s1", "w0", Store(env)))
    registry.register(EngineReference("e0", "s2", "w0", Store(env)))
    assert registry.count("s1") == 1
    assert registry.count("s2") == 1
    registry.drop_session("s1")
    assert registry.count("s1") == 0
    assert registry.count("s2") == 1


def test_registry_deregister_idempotent():
    env = Environment()
    registry = WorkerRegistryService(env)
    registry.register(EngineReference("e0", "s1", "w0", Store(env)))
    registry.deregister("s1", "e0")
    registry.deregister("s1", "e0")
    assert registry.count("s1") == 0


def test_registry_wait_validation():
    env = Environment()
    registry = WorkerRegistryService(env)
    with pytest.raises(RegistryError):
        registry.wait_for("s1", -1)
    assert registry.wait_for("s1", 0).triggered


# ---------------------------------------------------------------------------
# Code loader
# ---------------------------------------------------------------------------

SOURCE = "class A(Analysis):\n    def process_batch(self, batch, tree):\n        pass\n"


def test_codeloader_stage_and_current():
    env, net, se, mgr, workers, ftp = build_site(4)
    loader = ManagingClassLoaderService(env, mgr, ftp, stage_overhead=6.5)
    bundle = CodeBundle(SOURCE)
    duration = env.run(until=loader.stage("s1", bundle, workers))
    assert duration == pytest.approx(7.0, abs=0.6)  # ~7 s as in Table 1
    assert loader.current("s1") is bundle
    assert bundle.version == 1
    for worker in workers:
        assert worker.has_file("s1-code-v1")


def test_codeloader_reload_bumps_version():
    # A reload is a session operation: the session service re-stages the
    # current bundle with a bumped version through the code loader.
    from repro.client.client import IPAClient
    from repro.core.site import GridSite, SiteConfig

    site = GridSite(SiteConfig(n_workers=2))
    client = IPAClient(site, site.enroll_user("/O=ILC/CN=reloader"))

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.upload_code(SOURCE)
        yield from client.reload_code(parameters={"x": 1})
        return info.session_id

    session_id = site.env.run(until=site.env.process(scenario()))
    reloaded = site.session_service.codeloader.current(session_id)
    assert reloaded.version == 2
    assert reloaded.parameters == {"x": 1}
    for ref in site.registry.engines(session_id):
        assert site.element.worker(ref.worker).has_file(f"{session_id}-code-v2")


def test_codeloader_unknown_session():
    env, net, se, mgr, workers, ftp = build_site(1)
    loader = ManagingClassLoaderService(env, mgr, ftp)
    with pytest.raises(CodeLoaderError):
        loader.current("ghost")


def test_codeloader_drop_session():
    env, net, se, mgr, workers, ftp = build_site(1)
    loader = ManagingClassLoaderService(env, mgr, ftp, stage_overhead=0.0)
    env.run(until=loader.stage("s1", CodeBundle(SOURCE), workers))
    loader.drop_session("s1")
    with pytest.raises(CodeLoaderError):
        loader.current("s1")


# ---------------------------------------------------------------------------
# AIDA manager
# ---------------------------------------------------------------------------

def make_snapshot(engine_id, entries, sequence=1, run_id=0, final=False, version=1):
    from repro.aida.hist1d import Histogram1D

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
        analysis_version=version,
        run_id=run_id,
        tree=tree.frozen_copy(),
        final=final,
    )


def test_manager_merges_engines_exactly():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    manager.submit_snapshot("s1", make_snapshot("e1", 20))
    tree, progress = env.run(until=manager.merged("s1"))
    assert tree.get("/h").entries == 30
    assert progress.engines_reporting == 2
    assert progress.events_processed == 30
    assert progress.total_events == 200
    assert not progress.complete


def test_manager_latest_snapshot_wins():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10, sequence=1))
    manager.submit_snapshot("s1", make_snapshot("e0", 25, sequence=2))
    manager.submit_snapshot("s1", make_snapshot("e0", 15, sequence=1))  # stale
    tree, progress = env.run(until=manager.merged("s1"))
    assert tree.get("/h").entries == 25


def test_manager_rewind_drops_old_run():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 50, run_id=0))
    manager.submit_snapshot("s1", make_snapshot("e1", 5, sequence=1, run_id=1))
    manager.submit_snapshot("s1", make_snapshot("e0", 99, sequence=9, run_id=0))
    tree, progress = env.run(until=manager.merged("s1"))
    assert tree.get("/h").entries == 5
    assert progress.run_id == 1


def test_manager_complete_flag():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 100, final=True))
    manager.submit_snapshot("s1", make_snapshot("e1", 100, final=True))
    _, progress = env.run(until=manager.merged("s1"))
    assert progress.complete
    assert progress.fraction_done == pytest.approx(1.0)


def test_manager_merge_latency_flat_vs_tree():
    # 64 engines, all dirty: one leaf folds all 64 in sequence; at fan-in
    # 4 the three levels each fold 4 inputs concurrently (log4(64) = 3).
    env = Environment()
    flat = AIDAManagerService(env, merge_cost_per_tree=0.1, fan_in=None)
    tree = AIDAManagerService(env, merge_cost_per_tree=0.1, fan_in=4)
    ids = [f"e{i:02d}" for i in range(64)]
    for manager in (flat, tree):
        manager.configure_tier("s1", ids)
        assert manager.tier("s1").poll_latency(0.1) == 0.0  # nothing dirty
        for engine_id in ids:
            manager.submit_snapshot("s1", make_snapshot(engine_id, 1))
    assert flat.tier("s1").depth == 1
    assert flat.tier("s1").poll_latency(0.1) == pytest.approx(6.4)
    assert tree.tier("s1").depth == 3
    assert tree.tier("s1").poll_latency(0.1) == pytest.approx(0.1 * 4 * 3)
    # The poll is charged exactly that.
    env.run(until=tree.merged("s1"))
    assert env.now == pytest.approx(0.1 * 4 * 3)
    assert tree.merge_log == [("s1", 64, pytest.approx(1.2))]
    # A single engine costs one fold.
    lone = AIDAManagerService(env, merge_cost_per_tree=0.1, fan_in=4)
    lone.submit_snapshot("s1", make_snapshot("e0", 1))
    assert lone.tier("s1").poll_latency(0.1) == pytest.approx(0.1)


def test_manager_merge_charges_time():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.5)
    manager.submit_snapshot("s1", make_snapshot("e0", 1))
    manager.submit_snapshot("s1", make_snapshot("e1", 1))
    env.run(until=manager.merged("s1"))
    assert env.now == pytest.approx(1.0)
    assert manager.merge_log == [("s1", 2, 1.0)]


def test_manager_empty_session():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.1)
    tree, progress = env.run(until=manager.merged("nothing"))
    assert tree.paths() == []
    assert progress.engines_reporting == 0
    assert progress.fraction_done == 0.0


def test_manager_drop_session():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 1))
    manager.drop_session("s1")
    assert manager.snapshot_count("s1") == 0


def test_manager_validation():
    env = Environment()
    with pytest.raises(ValueError):
        AIDAManagerService(env, merge_cost_per_tree=-1)
    with pytest.raises(ValueError):
        AIDAManagerService(env, fan_in=1)
