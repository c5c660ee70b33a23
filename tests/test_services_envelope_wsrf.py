"""Unit tests for the envelope transport and WSRF resources."""

import pytest

from repro.services.envelope import Fault, ServiceContainer, ServiceError
from repro.services.wsrf import ResourceHome
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def container(env):
    container = ServiceContainer(env, soap_latency=0.25, rmi_latency=0.05)

    def add(a, b):
        return a + b

    def slow(duration):
        # Generator operation: advances simulated time itself.
        yield env.timeout(duration)
        return "done"

    def crash():
        raise Fault("bad request")

    container.register("math", {"add": add, "slow": slow, "crash": crash})
    return container


def test_call_returns_value(env, container):
    result = env.run(until=container.call("math", "add", {"a": 2, "b": 3}))
    assert result == 5


def test_call_pays_soap_latency_both_ways(env, container):
    env.run(until=container.call("math", "add", {"a": 1, "b": 1}))
    assert env.now == pytest.approx(0.5)


def test_generator_operation_advances_time(env, container):
    result = env.run(until=container.call("math", "slow", {"duration": 3.0}))
    assert result == "done"
    assert env.now == pytest.approx(0.5 + 3.0)


def test_unknown_service_and_operation(env, container):
    def check():
        with pytest.raises(ServiceError, match="unknown service"):
            yield container.call("ghost", "op")
        with pytest.raises(ServiceError, match="no operation"):
            yield container.call("math", "ghost")

    env.run(until=env.process(check()))


def test_unknown_channel(env, container):
    def check():
        with pytest.raises(ServiceError, match="channel"):
            yield container.call("math", "add", {"a": 1, "b": 2}, channel="pigeon")

    env.run(until=env.process(check()))


def test_fault_propagates_to_caller(env, container):
    def check():
        with pytest.raises(Fault, match="bad request"):
            yield container.call("math", "crash")

    env.run(until=env.process(check()))


def test_rmi_requires_token(env, container):
    def check():
        with pytest.raises(Fault, match="token"):
            yield container.call("math", "add", {"a": 1, "b": 1}, channel="rmi")
        container.issue_token("secret")
        value = yield container.call(
            "math", "add", {"a": 1, "b": 1}, channel="rmi", token="secret"
        )
        assert value == 2
        container.revoke_token("secret")
        with pytest.raises(Fault):
            yield container.call(
                "math", "add", {"a": 1, "b": 1}, channel="rmi", token="secret"
            )

    env.run(until=env.process(check()))


def test_rmi_cheaper_than_soap(env, container):
    container.issue_token("t")

    def check():
        start = env.now
        yield container.call("math", "add", {"a": 1, "b": 1}, channel="soap")
        soap_time = env.now - start
        start = env.now
        yield container.call(
            "math", "add", {"a": 1, "b": 1}, channel="rmi", token="t"
        )
        rmi_time = env.now - start
        assert rmi_time < soap_time

    env.run(until=env.process(check()))


def test_duplicate_service_rejected(container):
    with pytest.raises(ServiceError):
        container.register("math", {})


def test_register_object_exposes_public_methods(env):
    class Greeter:
        def hello(self, name):
            return f"hi {name}"

        def _private(self):  # pragma: no cover - must not be exposed
            return "secret"

    container = ServiceContainer(env)
    container.register_object("greeter", Greeter())
    assert "greeter" in container.services
    result = env.run(until=container.call("greeter", "hello", {"name": "bob"}))
    assert result == "hi bob"

    def check():
        with pytest.raises(ServiceError):
            yield container.call("greeter", "_private")

    env.run(until=env.process(check()))


def test_fault_injection(env, container):
    container.inject_fault("math", "add", RuntimeError("injected"))

    def check():
        with pytest.raises(RuntimeError, match="injected"):
            yield container.call("math", "add", {"a": 1, "b": 1})
        container.clear_fault("math", "add")
        value = yield container.call("math", "add", {"a": 1, "b": 1})
        assert value == 2

    env.run(until=env.process(check()))


def test_call_log_records_success(env, container):
    env.run(until=container.call("math", "add", {"a": 1, "b": 1}))
    assert list(container.call_log) == [("math", "add", "soap")]


# ---------------------------------------------------------------------------
# WSRF
# ---------------------------------------------------------------------------

def test_resource_create_mints_a_typed_ref():
    home = ResourceHome("session")
    ref = home.create()
    assert ref.resource_type == "session"
    assert ref.resource_id == "session-1"
    assert ref.key


def test_resource_ids_unique():
    home = ResourceHome("session")
    refs = {home.create().resource_id for _ in range(10)}
    assert len(refs) == 10


def test_adopting_a_journalled_id_advances_the_counter():
    # Service recovery re-mints journalled session ids: a session created
    # after it must not reuse one.
    home = ResourceHome("session")
    assert home.create(resource_id="session-7").resource_id == "session-7"
    assert home.create().resource_id == "session-8"
    assert home.create(resource_id="session-3").resource_id == "session-3"
    assert home.create().resource_id == "session-9"
