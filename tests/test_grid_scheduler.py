"""Unit tests for the batch scheduler and its dedicated interactive queue."""

import pytest

from repro.grid.nodes import ComputeElement, NodeSpec, WorkerNode
from repro.grid.scheduler import (
    BatchScheduler,
    JobState,
    QueueSpec,
    SchedulerError,
)
from repro.sim import Environment, Interrupt


def build(n_workers=4):
    env = Environment()
    workers = [WorkerNode(env, f"w{i}", NodeSpec()) for i in range(n_workers)]
    ce = ComputeElement("ce", workers)
    sched = BatchScheduler(env, ce)
    sched.add_queue(QueueSpec("interactive", priority=1, dispatch_latency=1.0))
    sched.add_queue(QueueSpec("batch", priority=10, dispatch_latency=30.0))
    return env, sched


def sleeper(duration):
    def body(env, worker):
        yield env.timeout(duration)
        return f"slept-{duration}"

    return body


def test_queue_spec_validation():
    with pytest.raises(ValueError):
        QueueSpec("q", dispatch_latency=-1)


def test_duplicate_queue_rejected():
    env, sched = build()
    with pytest.raises(SchedulerError):
        sched.add_queue(QueueSpec("batch"))


def test_submit_to_unknown_queue_rejected():
    env, sched = build()
    with pytest.raises(SchedulerError):
        sched.submit("j", "nope", sleeper(1))


def test_job_runs_and_completes():
    env, sched = build()
    job = sched.submit("j", "interactive", sleeper(5.0))
    env.run(until=job.done)
    assert job.state == JobState.COMPLETED
    assert job.result == "slept-5.0"
    assert job.start_time == pytest.approx(1.0)  # dispatch latency
    assert job.end_time == pytest.approx(6.0)
    assert job.wait_time == pytest.approx(1.0)


def test_job_lookup():
    env, sched = build()
    job = sched.submit("j", "interactive", sleeper(1))
    assert sched.job(job.id) is job
    with pytest.raises(SchedulerError):
        sched.job(999)


def test_interactive_dispatch_beats_batch():
    env, sched = build(n_workers=1)

    # Fill the single worker, then race an interactive and batch job.
    blocker = sched.submit("blocker", "interactive", sleeper(10.0))
    batch_job = sched.submit("batch", "batch", sleeper(1.0))
    inter_job = sched.submit("inter", "interactive", sleeper(1.0))
    env.run()
    # The interactive job (lower priority value) got the freed worker first.
    assert inter_job.start_time < batch_job.start_time


def test_jobs_fill_all_workers():
    env, sched = build(n_workers=4)
    jobs = [sched.submit(f"j{i}", "interactive", sleeper(10.0)) for i in range(4)]
    env.run(until=env.timeout(5.0))
    assert sched.running_count == 4
    assert sched.idle_worker_count == 0
    env.run()
    assert all(j.state == JobState.COMPLETED for j in jobs)
    assert sched.idle_worker_count == 4


def test_excess_jobs_wait_for_free_worker():
    env, sched = build(n_workers=2)
    jobs = [sched.submit(f"j{i}", "interactive", sleeper(10.0)) for i in range(3)]
    env.run()
    # Third job started only after a worker freed at t=11 (1 dispatch + 10).
    assert jobs[2].start_time == pytest.approx(12.0)


def test_each_running_job_gets_distinct_worker():
    env, sched = build(n_workers=3)
    jobs = [sched.submit(f"j{i}", "interactive", sleeper(5.0)) for i in range(3)]
    env.run()
    workers = {job.worker.name for job in jobs}
    assert len(workers) == 3


def test_cancel_pending_job():
    env, sched = build(n_workers=1)
    sched.submit("run", "interactive", sleeper(10.0))
    waiting = sched.submit("wait", "interactive", sleeper(10.0))
    env.run(until=env.timeout(2.0))
    sched.cancel(waiting.id)
    env.run()
    assert waiting.state == JobState.CANCELLED
    assert waiting.start_time is None


def test_cancel_running_job_interrupts_body():
    env, sched = build()
    job = sched.submit("j", "interactive", sleeper(100.0))

    def canceller():
        yield env.timeout(5.0)
        sched.cancel(job.id, "session-end")

    env.process(canceller())
    env.run()
    assert job.state == JobState.CANCELLED
    assert job.end_time == pytest.approx(5.0)


def test_cancel_terminal_job_is_noop():
    env, sched = build()
    job = sched.submit("j", "interactive", sleeper(1.0))
    env.run()
    sched.cancel(job.id)
    assert job.state == JobState.COMPLETED


def test_body_exception_fails_job():
    env, sched = build()

    def bad_body(env_, worker):
        yield env_.timeout(1.0)
        raise RuntimeError("analysis crashed")

    job = sched.submit("bad", "interactive", bad_body)
    env.run()
    assert job.state == JobState.FAILED
    assert isinstance(job.error, RuntimeError)


def test_graceful_body_catches_interrupt():
    env, sched = build()

    def graceful(env_, worker):
        try:
            yield env_.timeout(100.0)
        except Interrupt:
            pass
        return "stopped-cleanly"

    job = sched.submit("g", "interactive", graceful)

    def canceller():
        yield env.timeout(3.0)
        sched.cancel(job.id)

    env.process(canceller())
    env.run()
    # The body swallowed the interrupt and returned normally.
    assert job.state == JobState.COMPLETED
    assert job.result == "stopped-cleanly"


def test_worker_engine_id_set_during_run():
    env, sched = build(n_workers=1)
    observed = []

    def body(env_, worker):
        observed.append(worker.engine_id)
        yield env_.timeout(1.0)

    sched.submit("j", "interactive", body)
    env.run()
    assert observed == ["job-1"]
    assert sched.element.workers[0].engine_id is None


def test_pending_count():
    env, sched = build(n_workers=1)
    sched.submit("a", "interactive", sleeper(10))
    sched.submit("b", "interactive", sleeper(10))
    sched.submit("c", "interactive", sleeper(10))
    env.run(until=env.timeout(2.0))
    assert sched.pending_count == 2
