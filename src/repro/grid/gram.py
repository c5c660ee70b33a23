"""GRAM-like gatekeeper: authenticated job submission to the site scheduler.

In the reference implementation, the session service uses a GRAM client to
ask the site's GRAM server to start "a pre-configured number of analysis
engines" on the job scheduler (§3.2).  This module models that gatekeeper:

* a **job description** (the RSL of Globus, reduced to a dataclass);
* per-request **authentication** (certificate chain validated against the
  CA) and **authorization** (VO policy, which also caps the engine count);
* fan-out of one scheduler job per requested engine;
* a status/cancel API and completion callbacks, which the worker registry
  uses to learn where engines came up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, List, Optional, Sequence

from repro.grid.scheduler import BatchScheduler, Job, JobState
from repro.obs import NULL_OBS, Observability
from repro.grid.security import (
    AuthorizationService,
    Certificate,
    CertificateAuthority,
)
from repro.resilience.retry import RetryPolicy
from repro.sim import Environment, Event, Interrupt
from repro.grid.nodes import WorkerNode


class GramError(Exception):
    """Raised when a GRAM request is malformed or rejected."""


class GramUnavailable(GramError):
    """Transient gatekeeper outage: the request may be retried."""


@dataclass(frozen=True)
class JobDescription:
    """Reduced RSL: what to run, how many, and on which queue.

    Parameters
    ----------
    executable:
        Name of the program to start (informational; the body callable does
        the actual work in simulation).
    count:
        Number of engine instances requested.
    queue:
        Scheduler queue; defaults to the site's interactive queue when
        submitted through :meth:`GramGatekeeper.submit`.
    arguments:
        Free-form argument list (informational).
    """

    executable: str
    count: int = 1
    queue: Optional[str] = None
    arguments: Sequence[str] = ()

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not self.executable:
            raise ValueError("executable must be non-empty")


@dataclass
class GramSubmission:
    """Handle for a multi-job GRAM request."""

    request_id: int
    identity: str
    jobs: List[Job]
    #: Fires when every job has reached a terminal state.
    all_done: Event

    @property
    def states(self) -> List[str]:
        """Current state of every job, in submission order."""
        return [job.state for job in self.jobs]

    @property
    def workers(self) -> List[Optional[WorkerNode]]:
        """Worker node of every job (``None`` until dispatched)."""
        return [job.worker for job in self.jobs]


class GramGatekeeper:
    """Site entry point for starting analysis-engine jobs."""

    def __init__(
        self,
        env: Environment,
        scheduler: BatchScheduler,
        ca: CertificateAuthority,
        authz: AuthorizationService,
        auth_overhead: float = 0.5,
        obs: Optional["Observability"] = None,
    ) -> None:
        if auth_overhead < 0:
            raise ValueError("auth_overhead must be >= 0")
        self.env = env
        self.obs = obs or NULL_OBS
        self.scheduler = scheduler
        self.ca = ca
        self.authz = authz
        self.auth_overhead = auth_overhead
        self._request_seq = 0
        #: Remaining injected transient outages (consumed per submit).
        self._pending_failures = 0
        #: Backoff schedule used by :meth:`submit_with_retry`.
        self.retry_policy = RetryPolicy(
            max_attempts=3, base_delay=2.0, multiplier=2.0, max_delay=60.0
        )

    def inject_failures(self, count: int) -> None:
        """Make the next *count* submissions fail with :class:`GramUnavailable`."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._pending_failures = count

    def submit(
        self,
        description: JobDescription,
        credential_chain: List[Certificate],
        body_factory: Callable[
            [int], Callable[[Environment, WorkerNode], Generator]
        ],
        preferred: Optional[Sequence[str]] = None,
    ) -> GramSubmission:
        """Authenticate, authorize and enqueue ``description.count`` jobs.

        Parameters
        ----------
        body_factory:
            Called with the engine index (0-based) to produce each job body
            — engines need distinct identities for the registry.
        preferred:
            Data-affinity hint forwarded to the scheduler: worker names
            (best first) that already cache parts of the dataset the
            session will analyze.  Sequential dispatch spreads the hint
            across the engines — each job takes the best still-idle
            preferred worker.

        Raises
        ------
        GramError
            If the engine count exceeds the site policy or the queue is
            unknown.
        SecurityError
            On authentication/authorization failure.
        """
        span = self.obs.tracer.child(
            "gram.submit",
            executable=description.executable,
            count=description.count,
        )
        if self._pending_failures > 0:
            self._pending_failures -= 1
            self.obs.metrics.counter(
                "gram_unavailable_total", "Transient gatekeeper outages hit"
            ).inc()
            self.obs.events.emit(
                "gram_unavailable",
                message="gatekeeper temporarily unavailable",
                severity="warning",
                executable=description.executable,
            )
            span.finish(error="gatekeeper temporarily unavailable")
            raise GramUnavailable("gatekeeper temporarily unavailable")
        identity = self.ca.validate_chain(credential_chain, self.env.now)
        policy = self.authz.authorize(identity)
        # Tag the jobs with the submitter's VO so the scheduler can
        # dispatch fairly between VOs sharing a queue tier.
        vo = self.authz.vo_of(identity)
        if description.count > policy.max_engines_per_session:
            raise GramError(
                f"requested {description.count} engines but site policy "
                f"allows {policy.max_engines_per_session}"
            )
        queue = description.queue or policy.interactive_queue
        if queue not in self.scheduler.queues:
            raise GramError(f"unknown queue {queue!r}")

        self._request_seq += 1
        request_id = self._request_seq
        jobs = [
            self.scheduler.submit(
                name=f"{description.executable}#{index}",
                queue=queue,
                body=self._with_auth_overhead(body_factory(index)),
                preferred=list(preferred) if preferred else None,
                vo=vo,
            )
            for index in range(description.count)
        ]
        submission = GramSubmission(
            request_id=request_id,
            identity=identity,
            jobs=jobs,
            all_done=self.env.all_of([job.done for job in jobs]),
        )
        span.finish(request_id=request_id, queue=queue)
        self.obs.metrics.counter(
            "gram_submissions_total", "Accepted GRAM submissions"
        ).inc(queue=queue)
        return submission

    def submit_with_retry(
        self,
        description: JobDescription,
        credential_chain: List[Certificate],
        body_factory: Callable[
            [int], Callable[[Environment, WorkerNode], Generator]
        ],
        policy: Optional[RetryPolicy] = None,
        preferred: Optional[Sequence[str]] = None,
    ) -> Generator:
        """Like :meth:`submit`, retrying transient gatekeeper outages.

        Generator to ``yield from`` inside a simulation process.  Only
        :class:`GramUnavailable` is retried — authentication, policy and
        queue errors are permanent and propagate on the first attempt.
        """
        policy = policy or self.retry_policy
        last_error: Optional[GramUnavailable] = None
        for attempt in range(policy.max_attempts):
            try:
                return self.submit(
                    description, credential_chain, body_factory,
                    preferred=preferred,
                )
            except GramUnavailable as exc:
                last_error = exc
                if not policy.should_retry(attempt):
                    break
                yield self.env.timeout(
                    policy.delay(attempt, salt=("gram", self._request_seq))
                )
        raise last_error

    def _with_auth_overhead(
        self, body: Callable[[Environment, WorkerNode], Generator]
    ) -> Callable[[Environment, WorkerNode], Generator]:
        # A partial, not a closure: a failed job keeps its traceback, a
        # traceback keeps each frame's function, and a function that closed
        # over *body* would keep the engine behind it alive with the job.
        return partial(self._authenticated, body)

    def _authenticated(
        self,
        body: Callable[[Environment, WorkerNode], Generator],
        env: Environment,
        worker: WorkerNode,
    ):
        if self.auth_overhead:
            yield env.timeout(self.auth_overhead)
        inner = env.process(body(env, worker))
        try:
            result = yield inner
        except Interrupt as intr:
            # Forward the cancellation to the engine body, then report
            # its outcome (a graceful body may still return a value).
            if inner.is_alive:
                inner.interrupt(intr.cause)
            try:
                return (yield inner)
            except BaseException:
                raise intr from None
        return result

    def cancel(self, submission: GramSubmission, reason: object = "session-end") -> None:
        """Cancel every non-terminal job of a submission (§2.3 shutdown)."""
        for job in submission.jobs:
            if job.state not in JobState.TERMINAL:
                self.scheduler.cancel(job.id, reason)

    def status(self, submission: GramSubmission) -> dict:
        """Summarize a submission's job states."""
        counts: dict = {}
        for state in submission.states:
            counts[state] = counts.get(state, 0) + 1
        return counts
