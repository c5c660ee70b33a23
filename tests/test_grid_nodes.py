"""Unit tests for grid node types."""

import pytest

from repro.grid.nodes import (
    ComputeElement,
    ManagerNode,
    Node,
    NodeSpec,
    StorageElement,
    WorkerNode,
)
from repro.sim import Environment


def test_nodespec_validation():
    with pytest.raises(ValueError):
        NodeSpec(disk_read_mbps=0)
    with pytest.raises(ValueError):
        NodeSpec(disk_write_mbps=-1)


def test_disk_read_write_rates():
    env = Environment()
    node = Node(env, "n", NodeSpec(disk_read_mbps=100, disk_write_mbps=50))
    env.run(until=node.disk_read(200))
    assert env.now == pytest.approx(2.0)
    start = env.now
    env.run(until=node.disk_write(200))
    assert env.now - start == pytest.approx(4.0)


def test_disk_negative_size_rejected():
    env = Environment()
    node = Node(env, "n", NodeSpec())
    with pytest.raises(ValueError):
        node.disk_read(-1)


def test_store_and_has_file():
    env = Environment()
    node = Node(env, "n", NodeSpec())
    assert not node.has_file("part-0")
    node.store_file("part-0", 29.4)
    assert node.has_file("part-0")
    assert node.disk_files["part-0"] == 29.4


def test_worker_busy_flag():
    env = Environment()
    worker = WorkerNode(env, "w", NodeSpec())
    assert not worker.busy
    worker.engine_id = "engine-1"
    assert worker.busy


def test_storage_element_sequential_read_serializes():
    env = Environment()
    se = StorageElement(env, "se", NodeSpec(disk_read_mbps=10))
    se.sequential_read(50)
    se.sequential_read(50)
    env.run()
    assert env.now == pytest.approx(10.0)  # 5 + 5, strictly serialized


def test_compute_element_requires_workers():
    with pytest.raises(ValueError):
        ComputeElement("ce", [])


def test_compute_element_rejects_duplicate_names():
    env = Environment()
    workers = [WorkerNode(env, "w", NodeSpec()), WorkerNode(env, "w", NodeSpec())]
    with pytest.raises(ValueError):
        ComputeElement("ce", workers)


def test_compute_element_lookup_and_idle():
    env = Environment()
    workers = [WorkerNode(env, f"w{i}", NodeSpec()) for i in range(4)]
    ce = ComputeElement("ce", workers)
    assert len(ce) == 4
    assert ce.worker("w2") is workers[2]
    with pytest.raises(KeyError):
        ce.worker("nope")
    workers[0].engine_id = "e"
    assert [w.name for w in ce.idle_workers()] == ["w1", "w2", "w3"]


def test_manager_node_is_a_node():
    env = Environment()
    mgr = ManagerNode(env, "mgr", NodeSpec())
    assert isinstance(mgr, Node)
