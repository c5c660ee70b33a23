"""Core discrete-event simulation kernel: events, processes, environment.

The design mirrors SimPy's proven architecture but is intentionally small and
fully deterministic: the event queue is ordered by ``(time, priority,
sequence-number)`` so two runs with the same inputs produce identical traces.

Concepts
--------
*Event*
    Something that will happen at a point in simulated time.  An event is
    first *triggered* (given a value and scheduled) and later *processed*
    (its callbacks run and waiting processes resume).
*Process*
    A Python generator wrapped so that each ``yield <event>`` suspends the
    process until the event is processed.  The generator's return value
    becomes the value of the process event itself, so processes can wait on
    each other.
*Environment*
    Owns the clock and the event heap, and drives everything through
    :meth:`Environment.step` / :meth:`Environment.run`.

The classes on every hop of a service call — :class:`Event`,
:class:`Timeout`, :class:`Initialize`, :class:`Process` — are slotted and
push themselves onto the heap directly (same ``(time, priority, seq)``
key :meth:`Environment.schedule` builds); everything rarer goes through
``schedule``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.errors import Interrupt, SimulationError, StopSimulation

#: Scheduling priority for events that must run before normal events at the
#: same timestamp (e.g. interrupts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

_UNSET = object()


class Event:
    """A happening at a point in simulated time.

    Events move through three states:

    1. *pending* — created, not yet triggered;
    2. *triggered* — given a value/exception and placed on the event heap;
    3. *processed* — popped from the heap; callbacks have run.

    Processes wait on events by ``yield``-ing them.

    The kernel's own event classes are slotted: a poll costs several of
    them, and a fixed layout is cheaper to allocate than a ``__dict__``.
    Subclasses that declare no ``__slots__`` (resources, conditions)
    keep a ``__dict__``, so ad-hoc attributes still work there.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables ``cb(event)`` invoked when the event is processed.
        #: ``None`` once processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None
        # A failed event whose exception was "defused" (handled by a waiting
        # process) does not crash the simulation.
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value and is (or was) scheduled."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _UNSET:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception of a failed event, else ``None``."""
        if self._ok is False:
            return self._value
        return None

    def defused(self) -> None:
        """Mark a failed event as handled so it will not crash the run."""
        self._defused = True

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value* and schedule it."""
        if self._value is not _UNSET:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* and schedule it."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy success/failure state from another (triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed *delay* of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(env._queue, (env._now + delay, NORMAL, next(env._eid), self))

    def __repr__(self) -> str:
        return f"<Timeout({self.delay}) at {id(self):#x}>"


class Initialize(Event):
    """Internal event that starts a newly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        heappush(env._queue, (env._now, URGENT, next(env._eid), self))


class Interruption(Event):
    """Internal urgent event that delivers an :class:`Interrupt`."""

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise RuntimeError("cannot interrupt a terminated process")
        if process is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(self._interrupt)
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: "Event") -> None:
        proc = self.process
        if proc.triggered:
            return  # Process finished before the interrupt was delivered.
        # Detach the process from whatever it was waiting on, then resume it
        # with the failing interrupt event.
        if proc._target is not None and proc._target.callbacks is not None:
            try:
                proc._target.callbacks.remove(proc._resume)
            except ValueError:
                pass
        proc._resume(self)


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    Yield events from the generator to wait for them; the value sent back
    into the generator is the event's value.  If the awaited event failed,
    its exception is thrown into the generator (and thereby *defused*).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not terminated."""
        return self._value is _UNSET

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into this process as soon as possible."""
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome until it blocks."""
        self.env._active_proc = self
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    # The waiting process handles the failure: defuse it.
                    event._defused = True
                    exc = event._value
                    target = self._generator.throw(exc)
            except StopIteration as stop:
                # The generator returned: ``self.succeed(stop.value)``
                # with the heap push inlined.
                self._target = None
                env = self.env
                env._active_proc = None
                if self._value is not _UNSET:
                    raise RuntimeError(f"{self!r} has already been triggered")
                self._ok = True
                self._value = stop.value
                heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
                return
            except BaseException as exc:  # generator crashed
                self._target = None
                self.env._active_proc = None
                self.fail(exc)
                return

            if not isinstance(target, Event):
                # Push the error back into the generator so the traceback
                # points at the offending yield.
                event = Event(self.env)
                event._ok = False
                event._value = SimulationError(
                    f"process yielded non-event {target!r}"
                )
                event._defused = False
                continue
            if target.callbacks is not None:
                # Not yet processed: wait for it.
                target.callbacks.append(self._resume)
                self._target = target
                break
            # Already processed: continue immediately with its outcome.
            event = target
        self.env._active_proc = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", self._generator)
        return f"<Process({name}) at {id(self):#x}>"


class Condition(Event):
    """Waits for a combination of *events* per an evaluation function."""

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        # Immediately check already-processed events, subscribe to the rest.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self._events and not self.triggered:
            self.succeed(ConditionValue())

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    def _collect_values(self) -> "ConditionValue":
        result = ConditionValue()
        for event in self._events:
            # Only events that have actually been *processed* count; a
            # Timeout is triggered at creation but has not happened yet.
            if event.callbacks is None and event._ok:
                result.events.append(event)
        return result


class ConditionValue:
    """Ordered mapping of the events (and values) a condition collected."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(key)
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def values(self) -> List[Any]:
        """Values of the collected events, in creation order."""
        return [event.value for event in self.events]

    def __repr__(self) -> str:
        return f"<ConditionValue {self.values()!r}>"


class AllOf(Condition):
    """Condition that fires once *all* events have fired."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda evs, n: n >= len(evs), events)


class AnyOf(Condition):
    """Condition that fires once *any one* event has fired."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda evs, n: n >= 1 or not evs, events)


class Environment:
    """The simulation environment: virtual clock plus event heap.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (simulated seconds).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_proc: Optional[Process] = None

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing after *delay* seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` from *generator*."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event firing when all *events* have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event firing when any of *events* has fired."""
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------
    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Place a triggered *event* on the heap ``delay`` seconds from now."""
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event; raises :class:`EmptySchedule` when done."""
        if not self._queue:
            raise EmptySchedule()
        self._now, _, _, event = heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # Nobody handled the failure: crash the simulation.
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run until the heap is empty, a time, or an event.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain; a number — run until the
            clock reaches it; an :class:`Event` — run until it is processed
            and return its value.
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:  # already processed
                    return stop.value
                stop.callbacks.append(StopSimulation.callback)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self._now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                stop.callbacks.append(StopSimulation.callback)
                self.schedule(stop, priority=URGENT, delay=at - self._now)
        try:
            while True:
                self.step()
        except StopSimulation as stopped:
            return stopped.args[0]
        except EmptySchedule:
            if stop is not None and not stop.triggered:
                if isinstance(until, Event):
                    raise SimulationError(
                        "no scheduled events left but until event was not "
                        "triggered"
                    ) from None
            return None


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""
