"""Per-VO fair-share admission control and weighted-fair job dispatch."""

import pytest

from repro.grid.admission import AdmissionController, AdmissionError
from repro.grid.nodes import ComputeElement, NodeSpec, WorkerNode
from repro.grid.scheduler import BatchScheduler, QueueSpec
from repro.obs import Observability
from repro.services.envelope import RetryAfter
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


# -- controller validation + quota math ---------------------------------


def test_controller_validation(env):
    with pytest.raises(ValueError):
        AdmissionController(env, capacity=0)
    with pytest.raises(ValueError):
        AdmissionController(env, capacity=4, queue_depth=-1)
    with pytest.raises(ValueError):
        AdmissionController(env, capacity=4, shares={"ilc": 0.0})


def test_quota_splits_capacity_by_share(env):
    ctl = AdmissionController(
        env, capacity=12, shares={"ilc": 2.0, "atlas": 1.0}
    )
    assert ctl.share("ilc") == 2.0
    assert ctl.share("unknown") == 1.0
    assert ctl.quota("ilc") == pytest.approx(8.0)
    assert ctl.quota("atlas") == pytest.approx(4.0)
    # A new VO joins the denominator with the default share.
    assert ctl.quota("cms") == pytest.approx(12 * 1.0 / 4.0)


def test_acquire_validation(env):
    ctl = AdmissionController(env, capacity=4)

    def check():
        with pytest.raises(AdmissionError):
            yield from ctl.acquire("ilc", 0)
        with pytest.raises(AdmissionError):
            yield from ctl.acquire("ilc", 5)

    env.run(until=env.process(check()))
    with pytest.raises(AdmissionError):
        ctl.release("ilc", 0)


# -- grant / borrow / backpressure --------------------------------------


def test_single_vo_borrows_the_whole_pool(env):
    # Work conservation: with nobody else waiting, one VO may hold every
    # slot even though its fair quota is smaller.
    ctl = AdmissionController(env, capacity=8, shares={"ilc": 1.0, "atlas": 1.0})

    def scenario():
        yield from ctl.acquire("ilc", 4)
        yield from ctl.acquire("ilc", 4)

    env.run(until=env.process(scenario()))
    assert ctl.active("ilc") == 8
    assert ctl.free == 0


def test_over_quota_rejected_with_scaled_hint(env):
    ctl = AdmissionController(env, capacity=4, queue_depth=1)
    hints = []

    def scenario():
        yield from ctl.acquire("ilc", 4)  # pool exhausted
        env.process(waiter())  # occupies the one queue slot
        yield env.timeout(0)
        for _ in range(2):
            try:
                yield from ctl.acquire("ilc", 1)
            except RetryAfter as fault:
                hints.append(fault.retry_after)

    def waiter():
        yield from ctl.acquire("ilc", 1)

    env.run(until=env.process(scenario()))
    # hint = RETRY_AFTER_S * (1 + backlog); one waiter queued -> 10.0.
    assert hints == [pytest.approx(10.0), pytest.approx(10.0)]
    assert ctl.waiting("ilc") == 1


def test_zero_queue_depth_rejects_immediately(env):
    ctl = AdmissionController(env, capacity=2)

    def scenario():
        yield from ctl.acquire("ilc", 2)
        with pytest.raises(RetryAfter):
            yield from ctl.acquire("ilc", 1)

    env.run(until=env.process(scenario()))


def test_release_wakes_waiters_weighted_fair(env):
    # ilc holds the pool; atlas (weight 3) and cms (weight 1) queue up.
    # On release, the VO with the smaller active/share ratio goes first —
    # atlas drains three grants before cms's ratio catches up.
    ctl = AdmissionController(
        env,
        capacity=4,
        shares={"atlas": 3.0, "cms": 1.0},
        queue_depth=8,
    )
    order = []

    def holder():
        yield from ctl.acquire("ilc", 4)
        for _ in range(4):
            yield env.timeout(1.0)
            ctl.release("ilc", 1)

    def requester(vo, tag):
        yield from ctl.acquire(vo, 1)
        order.append((tag, env.now))

    def scenario():
        hold = env.process(holder())
        yield env.timeout(0)  # ilc grabs the pool first
        for index in range(3):
            env.process(requester("atlas", f"atlas-{index}"))
        env.process(requester("cms", "cms-0"))
        yield hold

    env.run(until=env.process(scenario()))
    # Ratios (active/share) decide each wake: tie at 0.0 goes to atlas
    # by name; then atlas at 1/3 loses to cms at 0/1; after cms holds
    # one slot (ratio 1.0) atlas drains its remaining waiters.
    assert [tag for tag, _ in order] == [
        "atlas-0",
        "cms-0",
        "atlas-1",
        "atlas-2",
    ]
    # Exactly one grant per released slot, at the release times.
    assert [t for _, t in order] == [1.0, 2.0, 3.0, 4.0]


def test_strict_head_never_bypassed(env):
    # A big request at the head of the fair-share order blocks smaller
    # ones behind it from jumping the queue (no starvation of big jobs).
    ctl = AdmissionController(env, capacity=4, queue_depth=4)
    order = []

    def holder():
        yield from ctl.acquire("ilc", 4)
        yield env.timeout(1.0)
        ctl.release("ilc", 1)  # not enough for the big head
        yield env.timeout(1.0)
        ctl.release("ilc", 3)  # now it fits

    def requester(vo, n, tag):
        yield from ctl.acquire(vo, n)
        order.append((tag, env.now))

    def scenario():
        hold = env.process(holder())
        yield env.timeout(0)
        env.process(requester("atlas", 3, "big"))
        yield env.timeout(0)
        env.process(requester("atlas", 1, "small"))
        yield hold

    env.run(until=env.process(scenario()))
    assert order[0][0] == "big"
    assert order[0][1] == pytest.approx(2.0)
    # The small one takes the slot the big request left free.
    assert order[1] == ("small", pytest.approx(2.0))


def test_release_floors_at_zero_and_stats_shape(env):
    ctl = AdmissionController(env, capacity=4, shares={"ilc": 1.0})
    ctl.release("ilc", 3)  # over-release must not go negative
    assert ctl.active("ilc") == 0
    assert ctl.free == 4
    stats = ctl.stats()
    assert stats["capacity"] == 4
    assert stats["free"] == 4
    assert stats["vos"]["ilc"]["active"] == 0
    assert stats["vos"]["ilc"]["share"] == 1.0


def test_admission_events_and_metrics(env):
    obs = Observability(env, enabled=True)
    ctl = AdmissionController(env, capacity=1, obs=obs)

    def scenario():
        yield from ctl.acquire("ilc", 1)
        with pytest.raises(RetryAfter):
            yield from ctl.acquire("ilc", 1)

    env.run(until=env.process(scenario()))
    kinds = [e.kind for e in obs.events.events()]
    assert "session_admitted" in kinds
    assert "admission_rejected" in kinds


# -- scheduler weighted-fair dispatch -----------------------------------


def build_scheduler(n_workers=1):
    env = Environment()
    workers = [
        WorkerNode(env, f"w{i}", NodeSpec())
        for i in range(n_workers)
    ]
    sched = BatchScheduler(env, ComputeElement("ce", workers))
    sched.add_queue(QueueSpec("interactive", priority=1, dispatch_latency=0.1))
    return env, sched


def sleeper(duration):
    def body(env, worker):
        yield env.timeout(duration)
        return "done"

    return body


def test_untagged_jobs_keep_submission_order():
    # All jobs without a VO: fair dispatch degenerates to the original
    # (priority, id) order, so nothing about the seed behaviour changes.
    env, sched = build_scheduler(n_workers=1)
    jobs = [
        sched.submit(f"j{i}", "interactive", sleeper(1.0)) for i in range(4)
    ]
    env.run()
    starts = [job.start_time for job in jobs]
    assert starts == sorted(starts)


def test_wfq_interleaves_vos_on_a_contended_queue():
    # 4 ilc jobs then 4 atlas jobs on one worker: FIFO would run all of
    # ilc first; fair dispatch alternates because each dispatch bumps the serving
    # VO's rank.
    env, sched = build_scheduler(n_workers=1)
    jobs = []
    for index in range(4):
        jobs.append(
            sched.submit(f"ilc-{index}", "interactive", sleeper(1.0), vo="ilc")
        )
    for index in range(4):
        jobs.append(
            sched.submit(
                f"atlas-{index}", "interactive", sleeper(1.0), vo="atlas"
            )
        )
    env.run()
    order = sorted(jobs, key=lambda j: j.start_time)
    vos = [job.vo for job in order]
    assert vos == [
        "ilc", "atlas", "ilc", "atlas", "ilc", "atlas", "ilc", "atlas"
    ]
    assert sched.vo_served("ilc") == 4
    assert sched.vo_served("atlas") == 4

