"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.0)

    env.process(proc())
    env.run()
    assert env.now == 3.0


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_value_returned():
    env = Environment()
    results = []

    def proc():
        value = yield env.timeout(1, value="hello")
        results.append(value)

    env.process(proc())
    env.run()
    assert results == ["hello"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        yield env.timeout(1)
        times.append(env.now)
        yield env.timeout(2)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [1, 3]


def test_run_until_time():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1)

    env.process(proc())
    env.run(until=5)
    assert env.now == 5


def test_run_until_time_in_past_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return "done"

    result = env.run(until=env.process(proc()))
    assert result == "done"
    assert env.now == 2


def test_run_until_already_processed_event():
    env = Environment()

    def gen():
        yield env.timeout(1)

    proc = env.process(gen())
    env.run()
    assert env.run(until=proc) is None  # returns immediately


def test_run_until_untriggered_event_with_empty_schedule():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_process_waits_for_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(3)
        return 21

    def parent():
        value = yield env.process(child())
        log.append((env.now, value * 2))

    env.process(parent())
    env.run()
    assert log == [(3, 42)]


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    log = []

    def waiter():
        value = yield ev
        log.append(value)

    def firer():
        yield env.timeout(5)
        ev.succeed("fired")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert log == ["fired"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(firer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_crashes_simulation():
    env = Environment()

    def firer():
        yield env.timeout(1)
        env.event().fail(ValueError("unhandled"))

    env.process(firer())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_defused_failure_does_not_crash():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("x"))
    ev.defused()
    env.run()  # no exception


def test_process_crash_propagates_to_parent():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise RuntimeError("child failed")

    def parent():
        with pytest.raises(RuntimeError, match="child failed"):
            yield env.process(child())

    env.run(until=env.process(parent()))


def test_process_crash_without_waiter_crashes_run():
    env = Environment()

    def boom():
        yield env.timeout(1)
        raise RuntimeError("nobody catches this")

    env.process(boom())
    with pytest.raises(RuntimeError, match="nobody catches"):
        env.run()


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    proc = env.process(bad())
    with pytest.raises(SimulationError):
        env.run()
    assert isinstance(proc.exception, SimulationError)


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(10)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def attacker(proc):
        yield env.timeout(3)
        proc.interrupt("stop now")

    victim_proc = env.process(victim())
    env.process(attacker(victim_proc))
    env.run()
    assert log == [(3, "stop now")]


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def gen():
        yield env.timeout(1)

    proc = env.process(gen())
    env.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_self_interrupt_rejected():
    env = Environment()

    def proc():
        with pytest.raises(RuntimeError):
            env.active_process.interrupt()
        yield env.timeout(0)

    env.run(until=env.process(proc()))


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(10)
        except Interrupt:
            pass
        yield env.timeout(1)
        log.append(env.now)

    def attacker(proc):
        yield env.timeout(2)
        proc.interrupt()

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert log == [3]


def test_is_alive_lifecycle():
    env = Environment()

    def gen():
        yield env.timeout(5)

    proc = env.process(gen())
    assert proc.is_alive
    env.run()
    assert not proc.is_alive
    assert proc.ok


def test_all_of_waits_for_all():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield AllOf(env, [t1, t2])
        log.append((env.now, result.values()))

    env.process(proc())
    env.run()
    assert log == [(5, ["a", "b"])]


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield AnyOf(env, [t1, t2])
        log.append((env.now, result.values()))

    env.process(proc())
    env.run()
    assert log == [(1, ["fast"])]


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        result = yield env.all_of([])
        return len(result)

    assert env.run(until=env.process(proc())) == 0


def test_condition_value_mapping_interface():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="x")
        result = yield env.all_of([t1])
        assert t1 in result
        assert result[t1] == "x"
        assert len(result) == 1
        assert list(result) == [t1]
        return True

    assert env.run(until=env.process(proc()))


def test_condition_fails_if_member_fails():
    env = Environment()
    ev = env.event()

    def proc():
        with pytest.raises(ValueError):
            yield env.all_of([ev, env.timeout(10)])

    def firer():
        yield env.timeout(1)
        ev.fail(ValueError("member failed"))

    env.process(firer())
    env.run(until=env.process(proc()))


def test_deterministic_fifo_ordering_at_same_time():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1)
        order.append(name)

    for name in "abcde":
        env.process(proc(name))
    env.run()
    assert order == list("abcde")


def test_peek_returns_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7)
    assert env.peek() == 7


def test_event_value_unavailable_before_trigger():
    env = Environment()
    ev = env.event()
    with pytest.raises(AttributeError):
        _ = ev.value
    with pytest.raises(AttributeError):
        _ = ev.ok


def test_trigger_copies_state():
    env = Environment()
    src = env.event().succeed("payload")
    dst = env.event()
    dst.trigger(src)
    assert dst.ok and dst.value == "payload"


def test_exception_property():
    env = Environment()
    exc = ValueError("e")
    ev = env.event()
    ev.fail(exc)
    ev.defused()
    assert ev.exception is exc
    ok = env.event().succeed(1)
    assert ok.exception is None


def test_nested_processes_three_deep():
    env = Environment()

    def level3():
        yield env.timeout(1)
        return 3

    def level2():
        value = yield env.process(level3())
        yield env.timeout(1)
        return value + 2

    def level1():
        value = yield env.process(level2())
        return value + 1

    assert env.run(until=env.process(level1())) == 6
    assert env.now == 2


def test_process_non_generator_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_timeout_repr_and_event_repr():
    env = Environment()
    assert "Timeout(3" in repr(env.timeout(3))
    assert "Event" in repr(env.event())


def test_many_processes_complete():
    env = Environment()
    done = []

    def proc(i):
        yield env.timeout(i % 7)
        done.append(i)

    for i in range(200):
        env.process(proc(i))
    env.run()
    assert sorted(done) == list(range(200))
    assert env.now == 6


def test_any_of_with_prefailed_event():
    env = Environment()
    failed = env.event()
    failed.fail(ValueError("pre-failed"))
    failed.defused()
    env.run()  # process the failure

    def proc():
        with pytest.raises(ValueError, match="pre-failed"):
            yield AnyOf(env, [failed, env.timeout(5)])

    env.run(until=env.process(proc()))


def test_all_of_with_already_processed_success():
    env = Environment()
    done = env.event().succeed("early")
    env.run()

    def proc():
        result = yield AllOf(env, [done, env.timeout(1, value="late")])
        return result.values()

    values = env.run(until=env.process(proc()))
    assert values == ["early", "late"]


def test_trigger_copies_failure_state():
    env = Environment()
    src = env.event()
    src.fail(ValueError("original"))
    src.defused()
    dst = env.event()
    dst.trigger(src)
    dst.defused()
    env.run()
    assert dst.ok is False
    assert str(dst.exception) == "original"


def test_hot_event_classes_are_slotted():
    # A poll allocates several of each; a fixed layout is what keeps that
    # cheap.  A stray attribute (or a subclass edit that drops __slots__)
    # brings the per-instance dict back.
    from repro.sim.kernel import Initialize

    env = Environment()

    def proc():
        yield env.timeout(1)

    process = env.process(proc())
    for instance in (
        env.event(), env.timeout(1), process, process._target,
    ):
        assert not hasattr(instance, "__dict__"), type(instance).__name__
    assert isinstance(process._target, Initialize)
    with pytest.raises(AttributeError):
        process.label = "nope"


def test_process_completion_keeps_the_already_triggered_check():
    # The inlined heap push at the end of a process must still refuse a
    # process somebody triggered by hand.
    env = Environment()

    def proc():
        yield env.timeout(1)

    process = env.process(proc())
    process.succeed("forced")
    with pytest.raises(RuntimeError, match="already been triggered"):
        env.run()
