"""Service container request loops: queues, dispatch slots, backpressure."""

import pytest

from repro.obs import Observability
from repro.services.envelope import (
    RetryAfter,
    ServiceContainer,
    ServiceError,
    ServiceProfile,
)
from repro.sim import Environment, Interrupt


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


# -- equivalence with the slot-process request loop ---------------------------
#
# The dispatch slots used to be ``concurrency`` idle processes draining a
# Store; they are a counter plus a FIFO of tickets now.  The numbers below
# were recorded from the Store-backed loop (commit b56d508) and must not move.


def test_burst_completes_fifo_at_the_pinned_times(env):
    container = make_container(env)
    container.configure_service(
        "svc", ServiceProfile(concurrency=4, dispatch_overhead_s=0.002)
    )
    finished = []

    def caller(index):
        yield container.call("svc", "echo", {"value": index})
        finished.append((index, env.now))

    for index in range(10):
        env.process(caller(index))
    env.run()
    # Exact floats, exact order: four at a time, arrival order within each.
    assert finished == [
        (0, 0.002), (1, 0.002), (2, 0.002), (3, 0.002),
        (4, 0.004), (5, 0.004), (6, 0.004), (7, 0.004),
        (8, 0.006), (9, 0.006),
    ]
    assert container.stats()["svc"] == {
        "backlog": 0, "served": 10, "rejected": 0,
    }


def test_refusal_hint_and_stats_match_the_pinned_run(env):
    container = make_container(env)
    container.configure_service(
        "svc",
        ServiceProfile(concurrency=2, queue_depth=3, dispatch_overhead_s=0.5),
    )
    outcomes = []

    def caller(index):
        try:
            yield container.call("svc", "echo", {"value": index})
            outcomes.append((index, "ok", env.now))
        except RetryAfter as fault:
            outcomes.append((index, fault.retry_after, env.now, str(fault)))

    def late():
        # t=0.6: one slot is free again, request 2 holds the other.
        yield env.timeout(0.35)
        for index in range(6, 9):
            env.process(caller(index))

    for index in range(6):
        env.process(caller(index))
    env.run(until=0.25)
    # A request counts against the depth while it holds a slot, too.
    assert container.stats()["svc"] == {
        "backlog": 3, "served": 0, "rejected": 3,
    }
    assert container.queue_backlog("svc") == 3
    env.process(late())
    env.run()
    full = "service 'svc' request queue is full (3 waiting)"
    assert outcomes == [
        (3, 1.0, 0.0, full),
        (4, 1.0, 0.0, full),
        (5, 1.0, 0.0, full),
        (0, "ok", 0.5),
        (1, "ok", 0.5),
        (8, 1.0, 0.6, full),
        (2, "ok", 1.0),
        (6, "ok", 1.1),
        (7, "ok", 1.5),
    ]
    assert container.stats()["svc"] == {
        "backlog": 0, "served": 5, "rejected": 4,
    }


def test_handler_returning_a_bare_event_is_awaited(env):
    # Not a process, not a generator: an event somebody else triggers
    # (how a coalesced poll waits on its leader's merge).
    container = make_container(env)
    shared = env.event()
    container.register("waiter", {"wait": lambda: shared})
    container.configure_service("waiter", ServiceProfile(concurrency=1))
    replies = []

    def caller(index):
        reply = yield container.call("waiter", "wait")
        replies.append((index, reply, env.now))

    def trigger():
        yield env.timeout(2.5)
        shared.succeed("merged")

    for index in range(3):
        env.process(caller(index))
    env.process(trigger())
    env.run()
    assert replies == [(0, "merged", 2.5), (1, "merged", 2.5), (2, "merged", 2.5)]


def test_failed_event_from_a_handler_raises_at_the_caller(env):
    container = make_container(env)
    shared = env.event()
    container.register("waiter", {"wait": lambda: shared})
    caught = []

    def caller():
        try:
            yield container.call("waiter", "wait")
        except KeyError as exc:
            caught.append(exc)

    env.process(caller())
    shared.fail(KeyError("lost"))
    env.run()
    assert len(caught) == 1


def test_configure_service_starts_no_processes(env):
    container = make_container(env)
    container.configure_service(
        "svc", ServiceProfile(concurrency=8, dispatch_overhead_s=0.01)
    )
    # Nothing scheduled: the slots are a counter, not idle processes.
    assert env.peek() == float("inf")
    steps = 0
    done = container.call("svc", "echo", {"value": 1})
    while not done.processed:
        env.step()
        steps += 1
    # Initialize, the dispatch-overhead timeout, the call's own completion.
    assert steps == 3
    assert env.peek() == float("inf")


def test_interrupted_requests_leak_neither_a_slot_nor_a_place(env):
    container = make_container(env)
    container.configure_service(
        "svc", ServiceProfile(concurrency=1, dispatch_overhead_s=1.0)
    )
    calls = {}
    finished = {}

    def caller(index):
        calls[index] = container.call("svc", "echo", {"value": index})
        try:
            yield calls[index]
            finished[index] = env.now
        except Interrupt:
            finished[index] = "interrupted"

    def canceller():
        yield env.timeout(0.5)
        calls[0].interrupt("gone")  # holds the slot, mid-overhead
        calls[2].interrupt("gone")  # still queued behind request 1

    for index in range(4):
        env.process(caller(index))
    env.process(canceller())
    env.run()
    # Request 0 gave the slot back at 0.5 (to request 1, the oldest
    # waiter); request 2 left the queue without ever holding it.
    assert finished == {0: "interrupted", 2: "interrupted", 1: 1.5, 3: 2.5}
    assert container.stats()["svc"] == {
        "backlog": 0, "served": 2, "rejected": 0,
    }
