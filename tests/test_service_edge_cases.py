"""Edge-case tests for service internals (envelope, session, engine host)."""

import pytest

from repro.analysis import counting
from repro.client.client import IPAClient
from repro.core.config import DEFAULT_CALIBRATION
from repro.core.site import GridSite, SiteConfig
from repro.services.aida_manager import AIDAManagerService
from repro.services.content import ContentStore
from repro.services.envelope import Fault, ServiceContainer
from repro.services.registry import WorkerRegistryService
from repro.services.engine_host import EngineHost
from repro.services.session_state import SessionError
from repro.sim import Environment


def test_generator_operation_failure_propagates():
    """An operation that raises mid-generator fails at the caller."""
    env = Environment()
    container = ServiceContainer(env)

    def flaky():
        yield env.timeout(1.0)
        raise Fault("died midway")

    container.register("svc", {"op": flaky})

    def check():
        with pytest.raises(Fault, match="died midway"):
            yield container.call("svc", "op")
        # The environment keeps working afterwards.
        yield env.timeout(1.0)

    env.run(until=env.process(check()))


def test_engine_host_rejects_unknown_directive():
    env = Environment()
    host = EngineHost(
        engine_id="e0",
        session_id="s0",
        registry=WorkerRegistryService(env),
        aida=AIDAManagerService(env, merge_cost_per_tree=0.0),
        content_store=ContentStore(),
        calibration=DEFAULT_CALIBRATION,
    )
    from repro.grid.nodes import NodeSpec, WorkerNode

    worker = WorkerNode(env, "w0", NodeSpec())
    proc = env.process(host.body(env, worker))

    def poke():
        yield env.timeout(5.0)
        yield host.mailbox.put(("teleport",))

    env.process(poke())
    with pytest.raises(SessionError, match="unknown directive"):
        env.run()


def test_engine_host_rejects_unknown_control_verb():
    env = Environment()
    host = EngineHost(
        engine_id="e0",
        session_id="s0",
        registry=WorkerRegistryService(env),
        aida=AIDAManagerService(env, merge_cost_per_tree=0.0),
        content_store=ContentStore(),
        calibration=DEFAULT_CALIBRATION,
    )
    with pytest.raises(SessionError, match="unknown control verb"):
        host._apply_control("warp", None)


def test_session_operations_after_close_rejected():
    site = GridSite(SiteConfig(n_workers=2))
    site.register_dataset(
        "ds", "/t/ds", size_mb=10.0, n_events=500,
        content={"kind": "ilc", "seed": 1},
    )
    client = IPAClient(site, site.enroll_user("/CN=alice"))

    def scenario():
        info = yield from client.obtain_proxy_and_connect()
        yield from client.close()
        with pytest.raises(SessionError, match="no active session"):
            site.session_service.status(info.session_id)
        with pytest.raises(SessionError):
            site.session_service.token(info.session_id)

    site.env.run(until=site.env.process(scenario()))


def test_double_close_rejected():
    site = GridSite(SiteConfig(n_workers=1))
    client = IPAClient(site, site.enroll_user("/CN=alice"))

    def scenario():
        info = yield from client.obtain_proxy_and_connect()
        yield from client.close()
        with pytest.raises(Exception, match="no active session"):
            yield site.container.call(
                "control", "close_session", {"session_id": info.session_id}
            )

    site.env.run(until=site.env.process(scenario()))


def test_stage_code_before_dataset_is_fine():
    """Code can be staged before the dataset (order independence)."""
    site = GridSite(SiteConfig(n_workers=2))
    site.register_dataset(
        "ds", "/t/ds", size_mb=10.0, n_events=500,
        content={"kind": "ilc", "seed": 1},
    )
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    results = {}

    def scenario():
        yield from client.obtain_proxy_and_connect()
        yield from client.upload_code(counting.SOURCE)  # before the data
        yield from client.select_dataset("ds")
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=3.0)
        results["events"] = final.progress.events_processed
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    assert results["events"] == 500


def test_create_session_zero_engines_rejected():
    site = GridSite(SiteConfig(n_workers=2))
    client = IPAClient(site, site.enroll_user("/CN=alice"))

    def scenario():
        client.obtain_proxy()
        with pytest.raises(SessionError, match=">= 1"):
            yield from client.connect(n_engines=0)

    site.env.run(until=site.env.process(scenario()))
