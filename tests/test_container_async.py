"""Service container request loops: queues, dispatch slots, backpressure."""

import pytest

from repro.obs import Observability
from repro.services.envelope import (
    RetryAfter,
    ServiceContainer,
    ServiceError,
    ServiceProfile,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_container(env, **kwargs):
    container = ServiceContainer(
        env, soap_latency=0.0, rmi_latency=0.0, **kwargs
    )

    def echo(value):
        return value

    def slow(duration, value="done"):
        yield env.timeout(duration)
        return value

    container.register("svc", {"echo": echo, "slow": slow})
    return container


def test_profile_validation():
    with pytest.raises(ValueError):
        ServiceProfile(concurrency=0)
    with pytest.raises(ValueError):
        ServiceProfile(queue_depth=0)
    with pytest.raises(ValueError):
        ServiceProfile(dispatch_overhead_s=-1.0)


def test_configure_service_rejects_duplicate_profile(env):
    container = make_container(env)
    container.configure_service("svc", ServiceProfile())
    with pytest.raises(ServiceError, match="already has a profile"):
        container.configure_service("svc", ServiceProfile())


def test_unprofiled_service_matches_direct_dispatch_timing(env):
    # Without a profile a request never touches the queue machinery: the
    # call costs soap 0.25 + handler 3.0 + soap 0.25 and nothing else.
    obs = Observability(env, enabled=True)
    container = ServiceContainer(
        env, soap_latency=0.25, rmi_latency=0.05, obs=obs
    )

    def slow(duration):
        yield env.timeout(duration)
        return "done"

    container.register("svc", {"slow": slow})
    result = env.run(until=container.call("svc", "slow", {"duration": 3.0}))
    assert result == "done"
    assert env.now == 3.5
    assert container.stats() == {}
    for name in (
        "container_queue_wait_seconds",
        "container_queue_depth",
        "container_rejections_total",
    ):
        assert obs.metrics.get(name).series() == {}


def test_dispatch_overhead_serializes_across_slots(env):
    # 1 slot, 0.1 s per dispatch: the Nth concurrent request waits for
    # N-1 dispatches before its own.
    container = make_container(env)
    container.configure_service(
        "svc", ServiceProfile(concurrency=1, dispatch_overhead_s=0.1)
    )
    finished = {}

    def caller(index):
        yield container.call("svc", "echo", {"value": index})
        finished[index] = env.now

    for index in range(4):
        env.process(caller(index))
    env.run()
    assert finished == {
        0: pytest.approx(0.1),
        1: pytest.approx(0.2),
        2: pytest.approx(0.3),
        3: pytest.approx(0.4),
    }
    assert container.stats()["svc"] == {
        "backlog": 0,
        "served": 4,
        "rejected": 0,
    }


def test_concurrency_widens_the_dispatch_pool(env):
    container = make_container(env)
    container.configure_service(
        "svc", ServiceProfile(concurrency=2, dispatch_overhead_s=0.1)
    )
    finished = {}

    def caller(index):
        yield container.call("svc", "echo", {"value": index})
        finished[index] = env.now

    for index in range(4):
        env.process(caller(index))
    env.run()
    # Two slots: requests drain pairwise.
    assert finished == {
        0: pytest.approx(0.1),
        1: pytest.approx(0.1),
        2: pytest.approx(0.2),
        3: pytest.approx(0.2),
    }


def test_no_head_of_line_blocking(env):
    # A slow *handler* holds no dispatch slot: a fast request queued
    # behind it completes long before the slow one.
    container = make_container(env)
    container.configure_service(
        "svc", ServiceProfile(concurrency=1, dispatch_overhead_s=0.01)
    )
    finished = {}

    def caller(op, args, key):
        yield container.call("svc", op, args)
        finished[key] = env.now

    env.process(caller("slow", {"duration": 100.0}, "slow"))
    env.process(caller("echo", {"value": 1}, "fast"))
    env.run()
    assert finished["fast"] == pytest.approx(0.02)
    assert finished["slow"] == pytest.approx(100.01)


def test_bounded_queue_refuses_with_retry_after(env):
    container = make_container(env)
    container.configure_service(
        "svc",
        ServiceProfile(concurrency=1, queue_depth=2, dispatch_overhead_s=1.0),
    )
    outcomes = {}

    def caller(index):
        try:
            yield container.call("svc", "echo", {"value": index})
            outcomes[index] = "ok"
        except RetryAfter as fault:
            outcomes[index] = fault.retry_after

    for index in range(4):
        env.process(caller(index))
    env.run()
    # Two fit in the queue; the rest are refused with a drain hint that
    # covers the backlog in front of them.
    accepted = [k for k, v in outcomes.items() if v == "ok"]
    refused = {k: v for k, v in outcomes.items() if v != "ok"}
    assert len(accepted) == 2
    assert len(refused) == 2
    assert all(hint >= 1.0 for hint in refused.values())
    assert container.stats()["svc"]["rejected"] == 2
    assert container.queue_backlog("svc") == 0


def test_rejected_request_never_reaches_the_handler(env):
    container = make_container(env)
    container.configure_service(
        "svc",
        ServiceProfile(concurrency=1, queue_depth=1, dispatch_overhead_s=1.0),
    )
    calls = []

    def record(value):
        calls.append(value)
        return value

    container.register("audited", {"record": record})
    container.configure_service(
        "audited",
        ServiceProfile(concurrency=1, queue_depth=1, dispatch_overhead_s=1.0),
    )
    errors = []

    def caller(index):
        try:
            yield container.call("audited", "record", {"value": index})
        except RetryAfter as fault:
            errors.append((index, fault))

    for index in range(3):
        env.process(caller(index))
    env.run()
    assert sorted(calls) == [0]  # one queued slot, one rejected pair
    assert len(errors) == 2


def test_profile_lookup_and_backlog_of_unprofiled_service(env):
    container = make_container(env)
    profile = ServiceProfile(concurrency=3)
    container.configure_service("svc", profile)
    assert container.profile("svc") is profile
    assert container.profile("other") is None
    assert container.queue_backlog("other") == 0
    assert container.stats() == {
        "svc": {"backlog": 0, "served": 0, "rejected": 0}
    }
