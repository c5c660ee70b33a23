"""Message-envelope transport and the service container.

The reference implementation hosts Java Web Services in a Globus GT4
container and talks SOAP; the result-polling path uses insecure Java RMI
(§3.7).  This module reproduces the *architecture* in-process:

* services register named **operations** with a :class:`ServiceContainer`;
* callers invoke them with ``yield from container.request(...)`` inside
  their own simulation process: the request pays the configured channel
  latency, the operation runs (it may itself be a generator that advances
  simulated time), and the response pays the return latency;
  :meth:`ServiceContainer.call` runs it as a process of its own instead;
* two channels exist, matching the paper: ``soap`` (secure, higher
  overhead) and ``rmi`` (cheap polling channel); RMI operations require a
  session token minted by the secure channel — "none of the RMI objects
  could be instantiated without first creating a secure session" (§3.7);
* faults raised by operations travel back as :class:`Fault` and re-raise
  at the caller, and per-operation fault injection supports failure
  testing.

Request loop
------------
A service is dispatched immediately — an infinitely wide server — until
:meth:`ServiceContainer.configure_service` attaches a
:class:`ServiceProfile`.  Real GT4 containers are not that wide: under
thousands of concurrent sessions the dispatch cost (not the handler work)
is what serializes.  A profiled service therefore makes each request take
one of its dispatch slots first.  The slots are a *counter*, not
processes: a request that finds one free takes it and sleeps the dispatch
overhead in the caller's process (one kernel event); one that finds none
parks a ticket in the service's FIFO (a full bounded queue refuses with
:class:`RetryAfter` and a drain-time hint, HTTP 503 semantics) and is
handed the slot, still in FIFO order, by the request that releases it,
which fires the ticket one dispatch overhead later (one event too).  The
slot is held only for the dispatch overhead, never while the handler
runs, so a slow operation (session creation, a large merge) never
head-of-line blocks the queue behind it.  A handler may
return a plain value, a generator, or any kernel :class:`~repro.sim.Event`
(a process it started, or an event somebody else will trigger — how a
coalesced poll waits on its leader's merge); the latter two are awaited
before the reply travels back.  A generator handler runs as its own
process: a caller interrupted mid-call loses the reply, but the server's
work is never abandoned half-done.
Queue depth, queue wait and rejections are metrics on the observability
plane.  Whether a request queues is a lookup in the container's profile
table, not a choice of container class: unprofiled services keep the
direct-dispatch timing and ordering bit for bit.
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional

from repro.aida.codec import payload_nbytes
from repro.obs import NULL_OBS, NULL_SPAN, Observability
from repro.sim import Environment, Event, Process, Timeout


class ServiceError(Exception):
    """Raised for transport-level problems (unknown service/operation...)."""


class Fault(Exception):
    """An application-level fault returned by a service operation."""


class RetryAfter(Fault):
    """Backpressure fault: the request was refused, retry later.

    Raised by the container when a service's bounded request queue is
    full, and by the admission controller when a VO is over quota with
    no queue room left.  ``retry_after`` is the server's hint (simulated
    seconds) for when a retry is likely to be accepted — the moral
    equivalent of an HTTP 503 ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class ChannelSpec:
    """Latency/behaviour of one transport channel."""

    name: str
    request_latency: float = 0.05
    response_latency: float = 0.05
    requires_token: bool = False


@dataclass(frozen=True)
class ServiceProfile:
    """Request-loop shape of one hosted service.

    Parameters
    ----------
    concurrency:
        Dispatch slots: how many requests the service can be
        un-marshalling at once (a GT4 thread pool, not the handler
        parallelism — handlers always run cooperatively).
    queue_depth:
        Bound on requests waiting for a slot; ``None`` = unbounded.
        Arrivals beyond the bound are refused with ``RetryAfter``.
    dispatch_overhead_s:
        Serialized per-request cost charged while a slot is held
        (parsing, routing, marshalling).  The knob that makes thousands
        of concurrent polls queue instead of dispatching for free.
    """

    concurrency: int = 4
    queue_depth: Optional[int] = None
    dispatch_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1 (or None)")
        if self.dispatch_overhead_s < 0:
            raise ValueError("dispatch_overhead_s must be >= 0")


class _ServiceState:
    """Profile and mutable queue state of one profiled service."""

    __slots__ = ("profile", "free", "waiting", "backlog", "served", "rejected")

    def __init__(self, profile: ServiceProfile) -> None:
        self.profile = profile
        #: Dispatch slots nobody holds.
        self.free = profile.concurrency
        #: Tickets of the requests waiting for a slot, oldest first.
        self.waiting: Deque[Event] = deque()
        #: Requests admitted to the queue and not yet dispatched.
        self.backlog = 0
        self.served = 0
        self.rejected = 0


class ServiceContainer:
    """Hosts services and dispatches envelopes with simulated latency.

    Parameters
    ----------
    env:
        Simulation environment.
    soap_latency:
        One-way latency of the secure channel (mutual-auth'd SOAP over the
        WAN in the paper's deployment).
    rmi_latency:
        One-way latency of the cheap polling channel.
    """

    def __init__(
        self,
        env: Environment,
        soap_latency: float = 0.25,
        rmi_latency: float = 0.05,
        obs: Optional[Observability] = None,
    ) -> None:
        self.env = env
        self.obs = obs or NULL_OBS
        #: Per-call spans and metrics: one branch, decided here.
        self._observed = self.obs.enabled
        self._services: Dict[str, Dict[str, Callable]] = {}
        self._channels: Dict[str, ChannelSpec] = {
            "soap": ChannelSpec("soap", soap_latency, soap_latency),
            "rmi": ChannelSpec(
                "rmi", rmi_latency, rmi_latency, requires_token=True
            ),
        }
        self._valid_tokens: set = set()
        #: (service, operation) -> [exception, remaining count or None].
        self._injected_faults: Dict[str, list] = {}
        #: The most recent completed calls, for diagnostics:
        #: (service, operation, channel).
        self.call_log: Deque[tuple] = deque(maxlen=1024)
        #: Request-loop profile + queue state, per profiled service.
        self._states: Dict[str, _ServiceState] = {}
        self._depth_gauge = self.obs.metrics.gauge(
            "container_queue_depth",
            "Requests waiting for a dispatch slot, per service",
        )
        self._wait_metric = self.obs.metrics.histogram(
            "container_queue_wait_seconds",
            "Request wait from arrival to dispatch slot (simulated seconds)",
        )
        self._reject_metric = self.obs.metrics.counter(
            "container_rejections_total",
            "Requests refused because a service queue was full",
        )
        self._errors_metric = self.obs.metrics.counter(
            "service_errors_total", "Failed service-operation calls"
        )
        self._calls_metric = self.obs.metrics.counter(
            "service_calls_total", "Completed service-operation calls"
        )
        self._latency_metric = self.obs.metrics.histogram(
            "service_call_seconds",
            "Service call latency (request to response, simulated seconds)",
        )

    # -- registration -------------------------------------------------------
    def register(self, service_name: str, operations: Dict[str, Callable]) -> None:
        """Register a service's operations (callables or generators)."""
        if service_name in self._services:
            raise ServiceError(f"service {service_name!r} already registered")
        self._services[service_name] = dict(operations)

    def register_object(self, service_name: str, obj: Any) -> None:
        """Register every public method of *obj* as an operation."""
        operations = {
            name: method
            for name, method in inspect.getmembers(obj, callable)
            if not name.startswith("_")
        }
        self.register(service_name, operations)

    @property
    def services(self) -> list:
        """Names of registered services."""
        return sorted(self._services)

    def operations(self, service_name: str) -> list:
        """Operation names of one registered service."""
        operations = self._services.get(service_name)
        if operations is None:
            raise ServiceError(f"unknown service {service_name!r}")
        return sorted(operations)

    # -- request loops -----------------------------------------------------
    def configure_service(self, service: str, profile: ServiceProfile) -> None:
        """Attach a request loop to *service*: its dispatch slots and queue.

        May be called before or after the service registers its
        operations (routing errors still resolve before queueing, so an
        unknown operation never occupies queue space).
        """
        if service in self._states:
            raise ServiceError(f"service {service!r} already has a profile")
        self._states[service] = _ServiceState(profile)

    def profile(self, service: str) -> Optional[ServiceProfile]:
        """The service's profile, or ``None`` (direct dispatch)."""
        state = self._states.get(service)
        return state.profile if state is not None else None

    def stats(self) -> Dict[str, dict]:
        """Per-profiled-service queue counters (diagnostics)."""
        return {
            service: {
                "backlog": state.backlog,
                "served": state.served,
                "rejected": state.rejected,
            }
            for service, state in sorted(self._states.items())
        }

    # -- tokens ------------------------------------------------------------
    def issue_token(self, token: str) -> None:
        """Mark *token* as a valid session token for the RMI channel."""
        self._valid_tokens.add(token)

    def revoke_token(self, token: str) -> None:
        """Invalidate a session token (idempotent)."""
        self._valid_tokens.discard(token)

    # -- fault injection -------------------------------------------------------
    def inject_fault(
        self,
        service: str,
        operation: str,
        error: Exception,
        count: Optional[int] = None,
    ) -> None:
        """Make calls to (service, operation) raise *error*.

        With ``count=None`` (the default) the fault persists until
        :meth:`clear_fault`; with an integer it is transient — consumed by
        the next *count* calls, after which the operation recovers.
        """
        if count is not None and count < 1:
            raise ValueError("count must be >= 1 (or None for persistent)")
        self._injected_faults[service, operation] = [error, count]

    def clear_fault(self, service: str, operation: str) -> None:
        """Remove an injected fault (idempotent)."""
        self._injected_faults.pop((service, operation), None)

    # -- dispatch ------------------------------------------------------------
    def call(self, service: str, operation: str, args: Optional[dict] = None,
             channel: str = "soap", token: Optional[str] = None) -> Process:
        """:meth:`request` as a process of its own, for callers that need a
        waitable event.  The caller's current span is captured now."""
        return self.env.process(self.request(
            service, operation, args, channel, token, self.obs.tracer.current_id
        ))

    def _admit(self, service: str, span) -> Optional[Any]:
        """Admission after routing, before the handler.

        ``None`` admits the request immediately (the service has no
        profile); otherwise the returned generator queues it behind the
        service's dispatch slots — or raises :class:`RetryAfter` when the
        bounded queue is full.
        """
        state = self._states.get(service)
        if state is None:
            return None
        return self._enqueue(service, span, state)

    def _enqueue(self, service: str, span, state: _ServiceState):
        """Take a dispatch slot (FIFO), hold it for the dispatch overhead
        (a handed-over slot's overhead is in the wait for its ticket)."""
        profile = state.profile
        depth = profile.queue_depth
        if depth is not None and state.backlog >= depth:
            state.rejected += 1
            self._reject_metric.inc(service=service)
            raise RetryAfter(
                f"service {service!r} request queue is full "
                f"({state.backlog} waiting)",
                retry_after=self._drain_hint(state),
            )
        env = self.env
        state.backlog += 1
        if self._observed:
            self._depth_gauge.set(state.backlog, service=service)
        arrival = env.now
        ticket = None
        try:
            if state.free:
                state.free -= 1
                if profile.dispatch_overhead_s:
                    yield Timeout(env, profile.dispatch_overhead_s)
            else:
                ticket = Event(env)
                state.waiting.append(ticket)
                yield ticket
        finally:
            state.backlog -= 1
            if ticket is not None and not ticket.triggered:
                # Interrupted while still queued: it never held a slot.
                state.waiting.remove(ticket)
            elif state.waiting:
                # Hand the slot to the oldest waiter: its ticket fires
                # (``succeed()``) once it has held it for the overhead.
                handed = state.waiting.popleft()
                handed._ok, handed._value = True, None
                env.schedule(handed, delay=profile.dispatch_overhead_s)
            else:
                state.free += 1
        state.served += 1
        if self._observed:
            self._depth_gauge.set(state.backlog, service=service)
            wait = env.now - arrival
            self._wait_metric.observe(wait, service=service)
            span.set(queue_wait_s=wait)

    @staticmethod
    def _drain_hint(state: _ServiceState) -> float:
        """Deterministic ``retry_after`` estimate: time to drain the queue."""
        profile = state.profile
        if profile.dispatch_overhead_s:
            return max(
                profile.dispatch_overhead_s,
                profile.dispatch_overhead_s
                * (state.backlog + 1)
                / profile.concurrency,
            )
        return 1.0

    def request(
        self,
        service: str,
        operation: str,
        args: Optional[dict] = None,
        channel: str = "soap",
        token: Optional[str] = None,
        trace_parent: Optional[str] = None,
    ):
        """Generator op: invoke an operation inside the caller's process.

        ``result = yield from container.request(...)`` returns the
        operation's value; errors raise at the ``yield from`` site.  The
        call's span hangs under *trace_parent*, else the current span.
        """
        env = self.env
        tracer = self.obs.tracer
        observed = self._observed
        key = f"{service}.{operation}" if observed else None
        span = NULL_SPAN
        if observed:
            span = tracer.start(
                "call:" + key, parent_id=trace_parent, channel=channel
            )
        started = env.now
        try:
            spec = self._channels.get(channel)
            if spec is None:
                raise ServiceError(f"unknown channel {channel!r}")
            if spec.request_latency:
                yield Timeout(env, spec.request_latency)
            if spec.requires_token and token not in self._valid_tokens:
                raise Fault(
                    f"channel {channel!r} requires a valid session token"
                )
            operations = self._services.get(service)
            if operations is None:
                raise ServiceError(f"unknown service {service!r}")
            handler = operations.get(operation)
            if handler is None:
                raise ServiceError(
                    f"service {service!r} has no operation {operation!r}"
                )
            faults = self._injected_faults
            injected = faults.get((service, operation)) if faults else None
            if injected is not None:
                error, remaining = injected
                if remaining == 1:
                    del faults[service, operation]
                elif remaining is not None:
                    injected[1] = remaining - 1
                raise error
            gate = self._admit(service, span)
            if gate is not None:
                # Profiled service: wait for a dispatch slot, or refuse
                # with RetryAfter under backpressure.
                yield from gate

            if observed:
                # The span is current while the handler runs synchronously (so
                # Process-returning operations can pick up the trace context)
                # and, via the wrap proxy, whenever a generator handler is
                # resumed later.
                with tracer.activate(span):
                    result = handler(**(args or {}))
            else:
                result = handler(**(args or {}))
            if isinstance(result, Event):
                # The operation started a simulation process, or handed
                # back an event somebody else triggers: wait for it.
                result = yield result
            elif inspect.isgenerator(result):
                # The operation advances simulated time itself, in its own
                # process, so an interrupted caller cannot abandon it.
                result = yield env.process(
                    tracer.wrap(span, result, finish=False)
                )
            if spec.response_latency:
                yield Timeout(env, spec.response_latency)
        except GeneratorExit:
            # The caller was closed (an abandoned client): not a failed
            # call, and not a served one either.
            span.finish(error="abandoned")
            raise
        except BaseException as exc:
            if observed:
                span.finish(error=repr(exc))
                self._errors_metric.inc(operation=key, channel=channel)
            raise
        if observed:
            span.finish()
            elapsed = env.now - started
            self._calls_metric.inc(operation=key, channel=channel)
            self._latency_metric.observe(elapsed, channel=channel)
            # Response payload accounting: how many bytes each operation
            # ships back (merged trees dominate; a "not modified" poll
            # reply ships none, so it is charged none).  Estimated, so the
            # hot path never pays for a real serialization.
            self.obs.metrics.counter(
                "service_response_bytes_total",
                "Estimated serialized response bytes per operation",
            ).inc(payload_nbytes(result), operation=key)
        self.call_log.append((service, operation, channel))
        return result
