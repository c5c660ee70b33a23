"""Unit tests for simulation resources: Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def user(name, hold):
        with res.request() as req:
            yield req
            granted.append((name, env.now))
            yield env.timeout(hold)

    env.process(user("a", 5))
    env.process(user("b", 5))
    env.process(user("c", 5))
    env.run()
    assert granted == [("a", 0), ("b", 0), ("c", 5)]


def test_resource_count_tracks_usage():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        with res.request() as req:
            yield req
            assert res.count == 1
            yield env.timeout(1)

    env.process(user())
    env.run()
    assert res.count == 0


def test_resource_release_idempotent_for_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def canceller():
        yield env.timeout(1)
        req = res.request()
        assert not req.triggered
        req.cancel()
        yield env.timeout(1)
        assert not req.triggered

    env.process(holder())
    env.process(canceller())
    env.run()
    assert res.count == 0
    assert res.queue == []


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(name):
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for name in "abc":
        env.process(user(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_resource_usage_since_recorded():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        with res.request() as req:
            yield req
            assert req.usage_since == env.now
            yield env.timeout(2)

    def late_user():
        yield env.timeout(1)
        with res.request() as req:
            yield req
            assert req.usage_since == 2.0

    env.process(user())
    env.process(late_user())
    env.run()


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    log = []

    def consumer():
        item = yield store.get()
        log.append((env.now, item))

    def producer():
        yield env.timeout(4)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [(4, "late")]


def test_store_put_blocks_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("a", env.now))
        yield store.put("b")
        log.append(("b", env.now))

    def consumer():
        yield env.timeout(5)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("a", 0), ("b", 5)]


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    env.run()
    assert len(store) == 2
