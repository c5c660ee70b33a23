"""A service call runs inside its caller's process.

``yield from container.request(...)`` pays the request latency, the
dispatch slot, the handler and the reply in the calling process; ``call()``
runs the same generator as a process of its own.  These tests pin that the
two are the same call: same replies in the same order at the same sim
times, same errors at the same sim times, and the inline one costs exactly
two kernel events less (the process's ``Initialize`` and its completion).
"""

import pytest

from repro.analysis import counting
from repro.client.client import IPAClient
from repro.client.plugins import RemoteDataPlugin
from repro.core.site import GridSite, SiteConfig
from repro.obs import Observability
from repro.services.envelope import (
    Fault,
    RetryAfter,
    ServiceContainer,
    ServiceError,
    ServiceProfile,
)
from repro.sim import Environment, Interrupt

# -- order guard: inline vs. through a process --------------------------


def _viewing_run(through_process: bool, monkeypatch):
    """One 16-engine session watched by 16 viewers under the e2e serving
    profile; returns (reply log, final trees, kernel steps, calls)."""
    original = ServiceContainer.request
    calls = [0]

    if through_process:

        def request(self, *args, **kwargs):
            calls[0] += 1
            return (yield self.env.process(original(self, *args, **kwargs)))

    else:

        def request(self, *args, **kwargs):
            calls[0] += 1
            return (yield from original(self, *args, **kwargs))

    monkeypatch.setattr(ServiceContainer, "request", request)
    site = GridSite(
        SiteConfig(
            n_workers=16,
            merge_fan_in=8,
            service_concurrency=4,
            service_dispatch_overhead_s=0.002,
            poll_coalesce_window_s=0.05,
        )
    )
    # 2 000 events per engine: two compute chunks, so two publishes each.
    site.register_dataset(
        "ds-a", "/t/ds-a", size_mb=30.0, n_events=32_000,
        content={"kind": "ilc", "seed": 100},
    )
    env = site.env
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    log = []
    finals = {}

    def viewer(plugin, phase):
        # Watch from engine start-up to the final merge.
        yield env.timeout(phase)
        held = None
        while True:
            tree, progress = yield from plugin.poll()
            reply = "not modified" if tree is held else tree.to_dict()
            log.append((env.now, plugin.client_id, progress.merge_generation, reply))
            held = tree
            if progress.final_engines == 16:
                break
            yield env.timeout(0.25)
        finals[plugin.client_id] = held.to_dict()

    def scenario():
        info = yield from alice.obtain_proxy_and_connect(n_engines=16)
        yield from alice.select_dataset("ds-a")
        yield from alice.upload_code(counting.SOURCE)
        yield from alice.run()
        viewers = []
        for index in range(16):
            plugin = RemoteDataPlugin(site.container, client_id=f"v{index}")
            plugin.bind(info.session_id, info.token)
            # Four groups of four arriving together: same-time polls
            # compete for the four dispatch slots, so some park tickets.
            viewers.append(env.process(viewer(plugin, 0.0625 * (index % 4))))
        yield env.all_of(viewers)
        final = yield from alice.wait_for_completion(poll_interval=2.0)
        finals["alice"] = final.tree.to_dict()
        yield from alice.close()

    done = env.process(scenario())
    steps = 0
    while not done.processed:
        env.step()
        steps += 1
    return log, finals, steps, calls[0]


def test_inline_calls_keep_every_reply_in_place(monkeypatch):
    log, finals, steps, calls = _viewing_run(False, monkeypatch)
    monkeypatch.undo()
    log_p, finals_p, steps_p, calls_p = _viewing_run(True, monkeypatch)
    # The viewers saw the tree move (empty, first chunk, final), each poll
    # answered with a tree or "not modified".
    assert len({generation for _, _, generation, _ in log}) >= 3
    assert any(reply != "not modified" for *_, reply in log)
    assert log == log_p
    assert finals == finals_p
    assert calls == calls_p
    # Each call through a process pays its Initialize and its completion.
    assert steps_p - steps == 2 * calls


# -- semantics of the inline path ---------------------------------------


def _container(env, **kwargs):
    container = ServiceContainer(env, soap_latency=0.25, rmi_latency=0.05, **kwargs)

    def add(a, b):
        return a + b

    def slow(duration):
        yield env.timeout(duration)
        return "done"

    container.register("math", {"add": add, "slow": slow})
    return container


def _outcome(env, container, inline, *args, **kwargs):
    """Run one call to completion; (result or error, sim time)."""

    def caller():
        try:
            if inline:
                value = yield from container.request(*args, **kwargs)
            else:
                value = yield container.call(*args, **kwargs)
        except Fault as exc:
            return (type(exc), str(exc), getattr(exc, "retry_after", None), env.now)
        except ServiceError as exc:
            return (type(exc), str(exc), env.now)
        return ("ok", value, env.now)

    return env.run(until=env.process(caller()))


@pytest.mark.parametrize(
    "args, kwargs, expected",
    [
        (("math", "add", {"a": 1, "b": 2}), {"channel": "pigeon"}, (ServiceError, 0.0)),
        (("ghost", "op"), {}, (ServiceError, 0.25)),
        (("math", "ghost"), {}, (ServiceError, 0.25)),
        (("math", "add", {"a": 1, "b": 2}), {"channel": "rmi"}, (Fault, 0.05)),
    ],
    ids=["unknown-channel", "unknown-service", "unknown-operation", "missing-token"],
)
def test_errors_raise_at_the_yield_from_site_at_the_call_time(args, kwargs, expected):
    outcomes = []
    for inline in (True, False):
        env = Environment()
        outcomes.append(_outcome(env, _container(env), inline, *args, **kwargs))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0][0], outcomes[0][-1]) == expected


def test_a_counted_fault_is_consumed_twice_then_the_operation_recovers():
    runs = []
    for inline in (True, False):
        env = Environment()
        container = _container(env)
        container.inject_fault("math", "add", Fault("flaky"), count=2)
        runs.append([
            _outcome(env, container, inline, "math", "add", {"a": 2, "b": 3})
            for _ in range(3)
        ])
    assert runs[0] == runs[1]
    assert runs[0] == [
        (Fault, "flaky", None, 0.25),
        (Fault, "flaky", None, 0.5),
        ("ok", 5, 1.0),
    ]


@pytest.mark.parametrize("observed", [False, True], ids=["obs-off", "obs-on"])
def test_a_fault_injected_during_the_request_latency_raises_at_routing(observed):
    env = Environment()
    obs = Observability(env, enabled=True) if observed else None
    container = _container(env, obs=obs)

    def injector():
        yield env.timeout(0.1)  # the call is inside its 0.25 s request hop
        container.inject_fault("math", "add", Fault("late"), count=1)

    env.process(injector())
    assert _outcome(env, container, True, "math", "add", {"a": 1, "b": 1}) == (
        Fault, "late", None, 0.25,
    )
    # Consumed: the next call goes through.
    assert _outcome(env, container, True, "math", "add", {"a": 1, "b": 1}) == (
        "ok", 2, 0.75,
    )


@pytest.mark.parametrize("observed", [False, True], ids=["obs-off", "obs-on"])
def test_a_counted_fault_is_consumed_once_per_concurrent_call(observed):
    env = Environment()
    obs = Observability(env, enabled=True) if observed else None
    container = _container(env, obs=obs)
    container.inject_fault("math", "add", Fault("flaky"), count=2)
    outcomes = []

    def caller(index, operation, args):
        try:
            value = yield from container.request("math", operation, args)
        except Fault as exc:
            value = str(exc)
        outcomes.append((index, value, env.now))

    # Another operation of the service does not consume the fault.
    env.process(caller("slow", "slow", {"duration": 0.0}))
    for index in range(3):
        env.process(caller(index, "add", {"a": index, "b": 1}))
    env.run()
    assert set(outcomes) == {
        (0, "flaky", 0.25), (1, "flaky", 0.25), (2, 3, 0.5), ("slow", "done", 0.5),
    }


def test_a_full_queue_refuses_inline_with_its_drain_hint():
    refusals = []
    for inline in (True, False):
        env = Environment()
        container = _container(env)
        container.configure_service(
            "math",
            ServiceProfile(concurrency=1, queue_depth=1, dispatch_overhead_s=1.0),
        )
        # Holds the one place in the queue from t=0.25 to t=1.25.
        env.process(container.request("math", "add", {"a": 0, "b": 0}))
        refusals.append(_outcome(env, container, inline, "math", "add", {"a": 1, "b": 1}))
    assert refusals[0] == refusals[1]
    kind, message, hint, at = refusals[0]
    assert kind is RetryAfter and at == 0.25 and hint == 2.0
    assert "request queue is full" in message


def test_a_caller_interrupted_while_parked_leaks_no_slot_ticket_or_backlog():
    env = Environment()
    container = ServiceContainer(env, soap_latency=0.0, rmi_latency=0.0)
    container.register("svc", {"echo": lambda value: value})
    container.configure_service(
        "svc", ServiceProfile(concurrency=1, dispatch_overhead_s=1.0)
    )
    finished = {}

    def caller(index):
        try:
            yield from container.request("svc", "echo", {"value": index})
            finished[index] = env.now
        except Interrupt:
            finished[index] = "interrupted"

    callers = {index: env.process(caller(index)) for index in range(4)}

    def canceller():
        yield env.timeout(0.5)
        callers[0].interrupt("gone")  # holds the slot, mid-overhead
        callers[2].interrupt("gone")  # still parked behind request 1
        yield env.timeout(2.5)
        # At t=3.0 the one slot must be free again: served in 1 s.
        yield from container.request("svc", "echo", {"value": "late"})
        finished["late"] = env.now

    env.process(canceller())
    env.run()
    assert finished == {
        0: "interrupted", 2: "interrupted", 1: 1.5, 3: 2.5, "late": 4.0,
    }
    assert container.stats()["svc"] == {"backlog": 0, "served": 3, "rejected": 0}


def test_an_interrupted_caller_loses_the_reply_but_the_handler_completes():
    env = Environment()
    container = ServiceContainer(env, soap_latency=0.25, rmi_latency=0.05)
    effects = []

    def stage(duration):
        yield env.timeout(duration)
        effects.append(env.now)
        return "staged"

    container.register("session", {"stage": stage})
    outcome = []

    def caller():
        try:
            yield from container.request("session", "stage", {"duration": 5.0})
        except Interrupt as interrupt:
            outcome.append((env.now, interrupt.cause))

    process = env.process(caller())

    def canceller():
        yield env.timeout(1.0)
        process.interrupt("client went away")

    env.process(canceller())
    env.run()
    assert outcome == [(1.0, "client went away")]
    assert effects == [5.25]


def test_a_closed_caller_is_not_a_failed_call():
    env = Environment()
    obs = Observability(env, enabled=True)
    container = _container(env, obs=obs)

    def caller():
        yield from container.request("math", "slow", {"duration": 3.0})

    abandoned = caller()
    env.process(abandoned)
    env.run(until=1.0)
    abandoned.close()  # what garbage collection does to an abandoned client
    env.run()
    assert obs.metrics.counter("service_errors_total", "").total() == 0
    # Nor a served one: the span says the reply never went out.
    (span,) = obs.tracer.find("call:math.slow")
    assert span.status == "error" and span.end == 1.0
    assert span.attrs["error"] == "abandoned"
    # A real failure is still one.
    with pytest.raises(ServiceError):
        env.run(until=env.process(container.request("math", "ghost")))
    assert obs.metrics.counter("service_errors_total", "").total() == 1
