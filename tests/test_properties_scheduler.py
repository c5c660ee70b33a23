"""Property-based tests for the batch scheduler."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.nodes import ComputeElement, NodeSpec, WorkerNode
from repro.grid.scheduler import BatchScheduler, JobState, QueueSpec
from repro.sim import Environment

job_specs = st.lists(
    st.tuples(
        st.sampled_from(["interactive", "batch"]),
        st.floats(min_value=0.1, max_value=20.0, allow_nan=False),  # run time
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),  # submit delay
    ),
    min_size=1,
    max_size=20,
)


def build(n_workers):
    env = Environment()
    workers = [WorkerNode(env, f"w{i}", NodeSpec()) for i in range(n_workers)]
    scheduler = BatchScheduler(env, ComputeElement("ce", workers))
    scheduler.add_queue(QueueSpec("interactive", priority=1, dispatch_latency=0.0))
    scheduler.add_queue(QueueSpec("batch", priority=10, dispatch_latency=0.0))
    return env, scheduler


@given(st.integers(min_value=1, max_value=4), job_specs)
@settings(max_examples=50, deadline=None)
def test_no_job_is_lost(n_workers, specs):
    """Every submitted job eventually completes, whatever the mix."""
    env, scheduler = build(n_workers)
    jobs = []

    def submitter(queue, run_time, delay):
        yield env.timeout(delay)

        def body(env_, worker):
            yield env_.timeout(run_time)

        jobs.append(scheduler.submit("j", queue, body))

    for queue, run_time, delay in specs:
        env.process(submitter(queue, run_time, delay))
    env.run()
    assert len(jobs) == len(specs)
    assert all(job.state == JobState.COMPLETED for job in jobs)
    assert scheduler.idle_worker_count == n_workers
    assert scheduler.pending_count == 0


@given(st.integers(min_value=1, max_value=4), job_specs)
@settings(max_examples=50, deadline=None)
def test_concurrency_never_exceeds_workers(n_workers, specs):
    env, scheduler = build(n_workers)
    peak = [0]

    def submitter(queue, run_time, delay):
        yield env.timeout(delay)

        def body(env_, worker):
            peak[0] = max(peak[0], scheduler.running_count)
            yield env_.timeout(run_time)

        scheduler.submit("j", queue, body)

    for queue, run_time, delay in specs:
        env.process(submitter(queue, run_time, delay))
    env.run()
    assert peak[0] <= n_workers


@given(job_specs)
@settings(max_examples=50, deadline=None)
def test_interactive_jobs_never_start_after_colocated_batch(specs):
    """Among jobs *pending together*, interactive beats batch to dispatch.

    Submit everything at t=0 onto a single worker: the completion order
    must put every interactive job before every batch job (FIFO within
    class), regardless of run times.
    """
    env, scheduler = build(1)
    order = []

    def make_body(index):
        def body(env_, worker):
            order.append(index)
            yield env_.timeout(1.0)

        return body

    # Ignore the per-spec delays: all at t=0 so priority fully decides.
    kinds = [queue for queue, _, _ in specs]
    for index, queue in enumerate(kinds):
        scheduler.submit("j", queue, make_body(index))
    env.run()
    started_kinds = [kinds[i] for i in order]
    first_batch = next(
        (pos for pos, kind in enumerate(started_kinds) if kind == "batch"),
        len(started_kinds),
    )
    assert all(kind == "batch" for kind in started_kinds[first_batch:])
