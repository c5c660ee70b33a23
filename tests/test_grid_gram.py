"""Unit tests for the GRAM-like gatekeeper."""

import pytest

from repro.grid.gram import GramError, GramGatekeeper, JobDescription
from repro.grid.nodes import ComputeElement, NodeSpec, WorkerNode
from repro.grid.scheduler import BatchScheduler, JobState, QueueSpec
from repro.grid.security import (
    AuthorizationService,
    CertificateAuthority,
    SecurityError,
    SitePolicy,
    VirtualOrganization,
    build_chain,
)
from repro.sim import Environment


@pytest.fixture
def site():
    env = Environment()
    workers = [WorkerNode(env, f"w{i}", NodeSpec()) for i in range(4)]
    ce = ComputeElement("ce", workers)
    sched = BatchScheduler(env, ce)
    sched.add_queue(QueueSpec("interactive", priority=1, dispatch_latency=1.0))
    sched.add_queue(QueueSpec("batch", priority=5, dispatch_latency=30.0))
    ca = CertificateAuthority("ca")
    vo = VirtualOrganization("ilc")
    vo.add_member("/CN=alice")
    policy = SitePolicy(
        max_engines_per_session=4,
        interactive_queue="interactive",
        allowed_vos=("ilc",),
    )
    authz = AuthorizationService([vo], policy)
    gram = GramGatekeeper(env, sched, ca, authz, auth_overhead=0.5)
    alice = ca.issue_identity("/CN=alice", now=0.0)
    proxy = alice.issue_proxy(now=0.0, lifetime=3600.0)
    chain = build_chain(proxy, alice)
    return env, gram, chain, ca


def engine_factory(run_time=2.0):
    def factory(index):
        def body(env, worker):
            yield env.timeout(run_time)
            return f"engine-{index}@{worker.name}"

        return body

    return factory


def test_description_validation():
    with pytest.raises(ValueError):
        JobDescription(executable="x", count=0)
    with pytest.raises(ValueError):
        JobDescription(executable="")


def test_gatekeeper_overhead_validation(site):
    env, gram, chain, ca = site
    with pytest.raises(ValueError):
        GramGatekeeper(env, gram.scheduler, gram.ca, gram.authz, auth_overhead=-1)


def test_submit_starts_requested_count(site):
    env, gram, chain, ca = site
    sub = gram.submit(
        JobDescription("analysis-engine", count=4), chain, engine_factory()
    )
    env.run(until=sub.all_done)
    assert sub.states == [JobState.COMPLETED] * 4
    results = sorted(job.result for job in sub.jobs)
    assert results[0].startswith("engine-0@")
    assert len({job.worker.name for job in sub.jobs}) == 4


def test_submit_defaults_to_interactive_queue(site):
    env, gram, chain, ca = site
    sub = gram.submit(JobDescription("e", count=1), chain, engine_factory())
    assert sub.jobs[0].queue == "interactive"


def test_submit_honours_explicit_queue(site):
    env, gram, chain, ca = site
    sub = gram.submit(
        JobDescription("e", count=1, queue="batch"), chain, engine_factory()
    )
    assert sub.jobs[0].queue == "batch"


def test_submit_unknown_queue_rejected(site):
    env, gram, chain, ca = site
    with pytest.raises(GramError, match="queue"):
        gram.submit(
            JobDescription("e", count=1, queue="nope"), chain, engine_factory()
        )


def test_submit_over_policy_limit_rejected(site):
    env, gram, chain, ca = site
    with pytest.raises(GramError, match="site policy"):
        gram.submit(JobDescription("e", count=5), chain, engine_factory())


def test_submit_bad_credentials_rejected(site):
    env, gram, chain, ca = site
    mallory = ca.issue_identity("/CN=mallory", now=0.0)
    proxy = mallory.issue_proxy(now=0.0)
    with pytest.raises(SecurityError):
        gram.submit(
            JobDescription("e", count=1),
            build_chain(proxy, mallory),
            engine_factory(),
        )


def test_auth_overhead_delays_engine_start(site):
    env, gram, chain, ca = site
    sub = gram.submit(JobDescription("e", count=1), chain, engine_factory(2.0))
    env.run(until=sub.all_done)
    # 1.0 dispatch + 0.5 auth + 2.0 run
    assert env.now == pytest.approx(3.5)


def test_cancel_submission(site):
    env, gram, chain, ca = site
    sub = gram.submit(JobDescription("e", count=4), chain, engine_factory(100.0))

    def canceller():
        yield env.timeout(5.0)
        gram.cancel(sub)

    env.process(canceller())
    env.run()
    assert all(state == JobState.CANCELLED for state in sub.states)
    # Engines died at cancellation time, not after their 100 s run time.
    assert all(job.end_time == pytest.approx(5.0) for job in sub.jobs)


def test_status_counts(site):
    env, gram, chain, ca = site
    sub = gram.submit(JobDescription("e", count=4), chain, engine_factory(10.0))
    env.run(until=env.timeout(5.0))
    assert gram.status(sub) == {JobState.RUNNING: 4}
    env.run()
    assert gram.status(sub) == {JobState.COMPLETED: 4}


def test_request_ids_increment(site):
    env, gram, chain, ca = site
    s1 = gram.submit(JobDescription("e", count=1), chain, engine_factory())
    s2 = gram.submit(JobDescription("e", count=1), chain, engine_factory())
    assert s2.request_id == s1.request_id + 1


def test_workers_property_before_dispatch(site):
    env, gram, chain, ca = site
    sub = gram.submit(JobDescription("e", count=2), chain, engine_factory())
    assert sub.workers == [None, None]
    env.run(until=sub.all_done)
    assert all(w is not None for w in sub.workers)
