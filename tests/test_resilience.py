"""Fault-injection & recovery subsystem tests.

Covers the retry policy, the fault plan / injector, heartbeat detection
latency, partition re-dispatch under 1-of-N and (N-1)-of-N worker loss,
spare-worker replacement, unrecoverable sessions, idempotent shutdown, and
per-operation fault injection across every registered service.
"""

import numpy as np
import pytest

from repro.analysis import higgs
from repro.client.client import ClientError, IPAClient
from repro.core.site import GridSite, SiteConfig
from repro.engine.runner import run_local
from repro.engine.sandbox import CodeBundle
from repro.grid.gram import GramUnavailable
from repro.grid.scheduler import JobState
from repro.resilience import (
    FAULT_KINDS,
    FailureInjector,
    FaultPlan,
    HeartbeatMonitor,
    RecoveryConfig,
    RetryPolicy,
    WorkerFault,
)
from repro.services.content import ContentStore
from repro.services.envelope import Fault
from repro.services.registry import WorkerRegistryService
from repro.sim import Environment, NodeCrash, NodeFailure, NodeHang


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def build(n_workers=4, **site_kwargs):
    site = GridSite(SiteConfig(n_workers=n_workers, **site_kwargs))
    site.register_dataset(
        "ds-small",
        "/test/ds-small",
        size_mb=20.0,
        n_events=2_000,
        metadata={"experiment": "ilc", "energy": 500},
        content={"kind": "ilc", "seed": 42},
    )
    user = site.enroll_user("/O=ILC/CN=alice")
    client = IPAClient(site, user)
    return site, client


def drive(site, generator):
    return site.env.run(until=site.env.process(generator))


def local_reference_tree(n_events=2_000, seed=42):
    content = ContentStore()
    batch = content.events_for({"kind": "ilc", "seed": seed}, 0, n_events)
    return run_local(CodeBundle(higgs.SOURCE), batch)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_exponential_delays_with_cap(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=2.0, max_delay=5.0
        )
        assert policy.delays() == [1.0, 2.0, 4.0, 5.0]
        assert policy.max_retries == 4

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(base_delay=3.0, multiplier=2.0)
        assert policy.delay(0) == 3.0
        assert policy.delay(1) == 6.0

    def test_jitter_is_deterministic_and_bounded(self):
        a = RetryPolicy(base_delay=10.0, jitter=0.25, seed=7, max_attempts=4)
        b = RetryPolicy(base_delay=10.0, jitter=0.25, seed=7, max_attempts=4)
        assert a.delays(salt="x") == b.delays(salt="x")
        # Different salt / seed decorrelates the stream.
        assert a.delays(salt="x") != a.delays(salt="y")
        c = RetryPolicy(base_delay=10.0, jitter=0.25, seed=8, max_attempts=4)
        assert a.delays(salt="x") != c.delays(salt="x")
        for attempt in range(3):
            base = 10.0 * 2.0**attempt
            d = a.delay(attempt, salt="x")
            assert base * 0.75 <= d <= base * 1.25

    def test_deadline_stops_retrying(self):
        policy = RetryPolicy(max_attempts=10, base_delay=4.0, deadline=10.0)
        assert policy.should_retry(0, elapsed=0.0)
        assert not policy.should_retry(1, elapsed=8.0)
        assert len(policy.delays()) < policy.max_retries

    def test_with_attempts_copies(self):
        policy = RetryPolicy(max_attempts=3, base_delay=2.0)
        bumped = policy.with_attempts(6)
        assert bumped.max_attempts == 6
        assert bumped.base_delay == 2.0
        assert policy.max_attempts == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


# ---------------------------------------------------------------------------
# FaultPlan / FailureInjector
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_fault_validation(self):
        with pytest.raises(ValueError):
            WorkerFault("w0", kind="meteor", at=1.0)
        with pytest.raises(ValueError):
            WorkerFault("w0")  # neither at= nor probability
        with pytest.raises(ValueError):
            WorkerFault("w0", at=1.0, slow_factor=0.5)
        assert WorkerFault("w0", at=0.0).kind in FAULT_KINDS

    def test_plan_partitions_scheduled_and_probabilistic(self):
        plan = FaultPlan(seed=3)
        plan.add(WorkerFault("w1", kind="crash", at=20.0))
        plan.add(WorkerFault("w0", kind="hang", at=10.0))
        plan.add(WorkerFault("w2", kind="slow", probability=0.5))
        assert [f.worker for f in plan.scheduled()] == ["w0", "w1"]
        assert [f.worker for f in plan.probabilistic()] == ["w2"]

    def test_scheduled_faults_fire_at_their_times(self):
        site, client = build(n_workers=2)
        plan = FaultPlan()
        plan.add(WorkerFault("w0", kind="slow", at=30.0, slow_factor=2.0))
        plan.add(WorkerFault("w1", kind="crash", at=50.0))
        site.injector.apply(plan)

        def scenario():
            yield site.env.timeout(100.0)

        drive(site, scenario())
        assert site.injector.log == [(30.0, "slow", "w0"), (50.0, "crash", "w1")]
        assert site.element.worker("w0").slow_factor == 2.0
        assert site.element.worker("w1").failed

    def test_probabilistic_faults_are_seeded_and_reproducible(self):
        times = []
        for _ in range(2):
            site, _ = build(n_workers=2)
            plan = FaultPlan(seed=11, check_every=5.0, horizon=500.0)
            plan.add(WorkerFault("w1", kind="crash", probability=0.1))
            site.injector.apply(plan)

            def scenario():
                yield site.env.timeout(600.0)

            drive(site, scenario())
            times.append(list(site.injector.log))
        assert times[0] == times[1]
        assert times[0], "fault should have fired within the horizon"


class TestFailureInjector:
    def test_crash_fails_running_job_with_node_crash(self):
        site, client = build(n_workers=2)

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=2)
            ref = site.registry.engines(info.session_id)[0]
            site.injector.crash_worker(ref.worker)
            job = site.session_service._sessions[info.session_id][
                "engine_jobs"
            ][ref.engine_id]
            yield job.done
            assert job.state == JobState.FAILED
            assert isinstance(job.error, NodeCrash)
            assert site.element.worker(ref.worker).failed

        drive(site, scenario())

    def test_hung_job_keeps_running_until_cancelled(self):
        site, client = build(n_workers=2, enable_recovery=False)

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=2)
            ref = site.registry.engines(info.session_id)[0]
            job = site.session_service._sessions[info.session_id][
                "engine_jobs"
            ][ref.engine_id]
            site.injector.hang_worker(ref.worker)
            yield site.env.timeout(200.0)
            assert job.state == JobState.RUNNING  # frozen, not dead
            site.scheduler.cancel(job.id, "give-up")
            yield job.done
            assert job.state == JobState.FAILED
            assert isinstance(job.error, NodeHang)

        drive(site, scenario())

    def test_restore_worker_returns_node_to_pool(self):
        site, _ = build(n_workers=2)
        site.injector.crash_worker("w0")
        assert site.scheduler.available_worker_count == 1
        site.injector.restore_worker("w0")
        assert site.scheduler.available_worker_count == 2


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------

class TestHeartbeats:
    def test_monitor_stale_logic(self):
        env = Environment()
        registry = WorkerRegistryService(env)
        config = RecoveryConfig(heartbeat_interval=5.0, heartbeat_timeout=20.0)
        monitor = HeartbeatMonitor(env, registry, "s1", config)
        monitor.watch("e0")
        monitor.watch("e1")

        def scenario():
            yield env.timeout(15.0)
            registry.heartbeat("s1", "e1")
            yield env.timeout(10.0)  # now=25: e0 silent for 25s, e1 for 10s
            assert monitor.stale() == ["e0"]
            yield env.timeout(20.0)  # now=45: both silent past the timeout
            assert monitor.stale() == ["e0", "e1"]
            monitor.unwatch("e0")
            assert monitor.stale() == ["e1"]

        env.run(until=env.process(scenario()))

    def test_engines_heartbeat_while_alive(self):
        site, client = build(n_workers=2)

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=2)
            yield site.env.timeout(60.0)
            for ref in site.registry.engines(info.session_id):
                last = site.registry.last_heartbeat(
                    info.session_id, ref.engine_id
                )
                assert last is not None
                assert site.env.now - last <= site.config.heartbeat_interval

        drive(site, scenario())

    def test_detection_latency_is_bounded_by_timeout_plus_period(self):
        site, client = build(n_workers=2)
        config = site.session_service.recovery
        marks = {}

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=2)
            yield from client.select_dataset("ds-small")
            yield from client.upload_code(higgs.SOURCE)
            yield from client.run()
            yield site.env.timeout(10.0)
            ref = site.registry.engines(info.session_id)[0]
            marks["killed_at"] = site.env.now
            site.injector.hang_worker(ref.worker)  # only heartbeats detect
            final = yield from client.wait_for_completion(
                poll_interval=2.0, timeout=4000.0
            )
            marks["session"] = site.session_service._sessions[info.session_id]
            yield from client.close()

        drive(site, scenario())
        recoveries = marks["session"]["recoveries"]
        assert len(recoveries) == 1
        latency = recoveries[0]["detected_at"] - marks["killed_at"]
        # Last beat is at most one interval before the kill; the monitor
        # needs a beat older than the timeout, observed at sweep granularity.
        assert latency >= config.heartbeat_timeout - config.heartbeat_interval
        assert latency <= config.heartbeat_timeout + config.period + 1e-6


# ---------------------------------------------------------------------------
# Re-dispatch under worker loss
# ---------------------------------------------------------------------------

class TestRecovery:
    @pytest.mark.parametrize("kind", ["crash", "hang", "link-down"])
    def test_one_of_n_loss_recovers_with_exact_results(self, kind):
        site, client = build(n_workers=4)
        results = {}

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=4)
            yield from client.select_dataset("ds-small")
            yield from client.upload_code(higgs.SOURCE)
            yield from client.run()
            yield site.env.timeout(10.0)
            victim = site.registry.engines(info.session_id)[0]
            site.injector.apply_fault(
                WorkerFault(victim.worker, kind=kind, at=site.env.now)
            )
            final = yield from client.wait_for_completion(
                poll_interval=2.0, timeout=4000.0
            )
            results["tree"] = final.tree
            results["progress"] = final.progress
            results["status"] = yield from client.status()
            yield from client.close()

        drive(site, scenario())
        progress = results["progress"]
        assert progress.complete
        assert progress.events_processed == 2000
        assert progress.expected_engines == 3
        assert not progress.recovering
        status = results["status"]
        assert len(status["node_failures"]) == 1
        assert not status["failures"]  # node loss is not an analysis crash
        assert status["orphaned_parts"] == 0
        assert len(status["redispatches"]) == 1
        # Merged histogram is exactly a failure-free single run's.
        local = local_reference_tree().get("/higgs/dijet_mass")
        merged = results["tree"].get("/higgs/dijet_mass")
        assert merged.entries == local.entries
        assert np.array_equal(merged.heights(), local.heights())

    def test_all_but_one_loss_recovers_with_exact_results(self):
        site, client = build(n_workers=3)
        results = {}

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=3)
            yield from client.select_dataset("ds-small")
            yield from client.upload_code(higgs.SOURCE)
            yield from client.run()
            yield site.env.timeout(10.0)
            refs = site.registry.engines(info.session_id)
            for victim in refs[:2]:  # (N-1)-of-N: 2 of 3 die at once
                site.injector.crash_worker(victim.worker)
            final = yield from client.wait_for_completion(
                poll_interval=2.0, timeout=8000.0
            )
            results["progress"] = final.progress
            results["tree"] = final.tree
            results["status"] = yield from client.status()
            yield from client.close()

        drive(site, scenario())
        progress = results["progress"]
        assert progress.complete
        assert progress.events_processed == 2000
        assert progress.expected_engines == 1
        status = results["status"]
        assert len(status["recoveries"]) == 2
        assert len(status["redispatches"]) == 2
        local = local_reference_tree().get("/higgs/dijet_mass")
        merged = results["tree"].get("/higgs/dijet_mass")
        assert merged.entries == local.entries
        assert np.array_equal(merged.heights(), local.heights())

    def test_spare_worker_preferred_over_survivor_takeover(self):
        site, client = build(n_workers=4)
        results = {}

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=3)
            yield from client.select_dataset("ds-small")
            yield from client.upload_code(higgs.SOURCE)
            yield from client.run()
            yield site.env.timeout(10.0)
            victim = site.registry.engines(info.session_id)[0]
            site.injector.crash_worker(victim.worker)
            final = yield from client.wait_for_completion(
                poll_interval=2.0, timeout=4000.0
            )
            results["progress"] = final.progress
            results["tree"] = final.tree
            results["status"] = yield from client.status()
            results["session_id"] = info.session_id
            yield from client.close()

        drive(site, scenario())
        status = results["status"]
        # The orphaned part went to a brand-new engine on the spare worker,
        # keeping parallelism at 3.
        spare_engine = f"{results['session_id']}-engine-3"
        assert [r["to"] for r in status["redispatches"]] == [spare_engine]
        assert status["n_engines"] == 3
        assert results["progress"].expected_engines == 3
        local = local_reference_tree().get("/higgs/dijet_mass")
        merged = results["tree"].get("/higgs/dijet_mass")
        assert merged.entries == local.entries
        assert np.array_equal(merged.heights(), local.heights())

    def test_spare_refused_by_gram_falls_back_to_a_survivor(self):
        site, client = build(n_workers=4, enable_observability=True)
        results = {}

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=3)
            yield from client.select_dataset("ds-small")
            yield from client.upload_code(higgs.SOURCE)
            yield from client.run()
            yield site.env.timeout(10.0)
            victim = site.registry.engines(info.session_id)[0]
            site.injector.crash_worker(victim.worker)
            # The gatekeeper is out exactly when the spare is submitted.
            site.gram.inject_failures(1)
            final = yield from client.wait_for_completion(
                poll_interval=2.0, timeout=4000.0
            )
            results["progress"] = final.progress
            results["tree"] = final.tree
            results["status"] = yield from client.status()
            results["session_id"] = info.session_id
            results["survivors"] = {
                ref.engine_id
                for ref in site.registry.engines(info.session_id)
            }
            yield from client.close()

        drive(site, scenario())
        status = results["status"]
        (redispatch,) = status["redispatches"]
        assert redispatch["to"] in results["survivors"]
        assert status["n_engines"] == 2
        assert results["progress"].complete
        local = local_reference_tree().get("/higgs/dijet_mass")
        merged = results["tree"].get("/higgs/dijet_mass")
        assert np.array_equal(merged.heights(), local.heights())
        (event,) = site.obs.events.events(kind="spare_start_failed")
        assert event.severity == "warning"
        assert event.attrs["session"] == results["session_id"]
        assert event.attrs["engine"] == f"{results['session_id']}-engine-3"
        assert "GramUnavailable" in event.attrs["error"]

    def test_spare_start_does_not_swallow_unexpected_errors(self, monkeypatch):
        site, client = build(n_workers=4)
        real_submit = site.gram.submit

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=3)
            yield from client.select_dataset("ds-small")

            def submit(description, chain, body_factory, preferred=None):
                def broken_factory(index):
                    raise RuntimeError("engine host could not be built")

                return real_submit(description, chain, broken_factory, preferred)

            monkeypatch.setattr(site.gram, "submit", submit)
            with pytest.raises(RuntimeError, match="could not be built"):
                yield from site.session_service._start_spare(info.session_id)
            yield from client.close()

        drive(site, scenario())

    def test_total_loss_is_unrecoverable(self):
        site, client = build(n_workers=3)

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=3)
            yield from client.select_dataset("ds-small")
            yield from client.upload_code(higgs.SOURCE)
            yield from client.run()
            yield site.env.timeout(10.0)
            for ref in site.registry.engines(info.session_id):
                site.injector.crash_worker(ref.worker)
            with pytest.raises(ClientError, match="unrecoverable"):
                yield from client.wait_for_completion(
                    poll_interval=2.0, timeout=4000.0
                )
            assert (yield from client.close())

        drive(site, scenario())

    def test_recovery_restages_only_orphaned_partitions(self):
        site, client = build(n_workers=4)
        results = {}

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=4)
            yield from client.select_dataset("ds-small")
            yield from client.upload_code(higgs.SOURCE)
            transferred_before = len(site.ftp.log)
            yield from client.run()
            yield site.env.timeout(10.0)
            victim = site.registry.engines(info.session_id)[0]
            site.injector.crash_worker(victim.worker)
            yield from client.wait_for_completion(
                poll_interval=2.0, timeout=4000.0
            )
            # After run() starts, the only SE -> worker transfers are
            # recovery re-staging (snapshots travel over RMI, not GridFTP).
            results["restage_transfers"] = [
                entry
                for entry in site.ftp.log[transferred_before:]
                if entry.src == site.storage.name
            ]
            yield from client.close()

        drive(site, scenario())
        # Exactly one partition (the dead engine's) was re-staged.
        assert len(results["restage_transfers"]) == 1


# ---------------------------------------------------------------------------
# Idempotent shutdown under failures
# ---------------------------------------------------------------------------

class TestShutdown:
    def test_close_is_idempotent(self):
        site, client = build(n_workers=2)

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=2)
            sid = info.session_id
            assert (yield from client.close())
            # Second close at the service level: a no-op, not an error.
            again = yield site.env.process(site.session_service.close(sid))
            assert again is True

        drive(site, scenario())

    def test_close_with_crashed_engine_does_not_deadlock(self):
        site, client = build(n_workers=3)

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=3)
            ref = site.registry.engines(info.session_id)[0]
            site.injector.crash_worker(ref.worker)
            # Close right away: one engine is already dead and will never
            # read its shutdown directive.
            assert (yield from client.close())
            assert site.registry.count(info.session_id) == 0

        drive(site, scenario())

    def test_close_with_hung_engine_does_not_deadlock(self):
        site, client = build(n_workers=2)

        def scenario():
            info = yield from client.obtain_proxy_and_connect(n_engines=2)
            ref = site.registry.engines(info.session_id)[0]
            site.injector.hang_worker(ref.worker)
            started = site.env.now
            assert (yield from client.close())
            # The monitor cancels the hung job; close never waits forever.
            assert site.env.now - started < 1000.0

        drive(site, scenario())

    def test_drop_session_is_idempotent(self):
        site, _ = build(n_workers=2)
        for _ in range(2):
            site.registry.drop_session("ghost")
            site.aida.drop_session("ghost")
            site.codeloader.drop_session("ghost")


# ---------------------------------------------------------------------------
# Service-envelope fault injection
# ---------------------------------------------------------------------------

class TestEnvelopeFaults:
    def test_every_registered_operation_can_be_fault_injected(self):
        site, _ = build(n_workers=2)
        checked = []

        def scenario():
            for service in site.container.services:
                for operation in site.container.operations(service):
                    boom = Fault(f"injected into {service}.{operation}")
                    site.container.inject_fault(
                        service, operation, boom, count=1
                    )
                    try:
                        yield site.container.call(service, operation, {})
                    except Fault as exc:
                        assert exc is boom
                        checked.append((service, operation))
                    else:
                        raise AssertionError(
                            f"{service}.{operation} did not raise its "
                            "injected fault"
                        )

        drive(site, scenario())
        # The sweep actually exercised a meaningful surface.
        assert len(checked) >= 10
        services = {service for service, _ in checked}
        assert {"catalog", "locator", "control", "session", "aida"} <= services

    def test_counted_fault_is_transient(self):
        site, _ = build(n_workers=2)
        boom = Fault("twice")
        site.container.inject_fault("catalog", "browse", boom, count=2)

        def scenario():
            for _ in range(2):
                with pytest.raises(Fault):
                    yield site.container.call(
                        "catalog", "browse", {"path": "/"}
                    )
            listing = yield site.container.call(
                "catalog", "browse", {"path": "/"}
            )
            assert listing is not None

        drive(site, scenario())

    def test_counted_fault_validation(self):
        site, _ = build(n_workers=2)
        with pytest.raises(ValueError):
            site.container.inject_fault("catalog", "browse", Fault("x"), count=0)


# ---------------------------------------------------------------------------
# GRAM submission retry
# ---------------------------------------------------------------------------

class TestGramRetry:
    def test_submission_retries_transient_gatekeeper_outage(self):
        site, client = build(n_workers=2)
        site.gram.inject_failures(2)
        marks = {}

        def scenario():
            started = site.env.now
            info = yield from client.obtain_proxy_and_connect(n_engines=2)
            marks["elapsed"] = site.env.now - started
            marks["n"] = info.n_engines

        drive(site, scenario())
        assert marks["n"] == 2
        # Two failed attempts cost the policy's first two backoff delays.
        expected = sum(site.gram.retry_policy.delays()[:2])
        assert marks["elapsed"] >= expected

    def test_submission_gives_up_after_policy_exhausted(self):
        site, client = build(n_workers=2)
        site.gram.inject_failures(site.gram.retry_policy.max_attempts)

        def scenario():
            client.obtain_proxy()
            with pytest.raises(GramUnavailable):
                yield from client.connect(n_engines=2)

        drive(site, scenario())
