"""Batch scheduler with a dedicated interactive queue.

The paper's key site-level requirement (§1, §6) is "a dedicated timely
scheduler queue": interactive analysis engines must start "within the limits
of human tolerance" (§2.3), which an ordinary batch queue full of
multi-hour production jobs cannot guarantee.

This scheduler models a simplified LSF/PBS:

* named queues, each with a *priority* (lower = dispatched first), a
  *dispatch latency* (how long the scheduler takes to place a runnable job —
  batch schedulers of the era polled every 30–60 s, the dedicated
  interactive queue here dispatches in ~1 s) and an optional *wall-time
  limit*;
* one job occupies one worker node; jobs wait until a worker is idle;
* jobs can be cancelled while pending or running (session shutdown kills
  the engines, §2.3: "started for each session and shut down at the end").
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Generator, List, Optional

from repro.grid.nodes import ComputeElement, WorkerNode
from repro.obs import NULL_OBS, Observability
from repro.sim import Environment, Event, Interrupt, NodeFailure, Process


class SchedulerError(Exception):
    """Raised for invalid scheduler operations."""


class JobState:
    """Job lifecycle states (string constants)."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"
    KILLED = "killed"  # exceeded wall-time

    TERMINAL = frozenset({COMPLETED, FAILED, CANCELLED, KILLED})


@dataclass(frozen=True)
class QueueSpec:
    """Configuration of one scheduler queue.

    Parameters
    ----------
    name:
        Queue name (e.g. ``"interactive"``, ``"batch"``).
    priority:
        Dispatch priority; lower values dispatch first.
    dispatch_latency:
        Seconds between a worker becoming available and the job actually
        starting (scheduler polling / placement cost).
    max_wall_time:
        Optional per-job run-time ceiling in seconds.
    """

    name: str
    priority: int = 10
    dispatch_latency: float = 30.0
    max_wall_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.dispatch_latency < 0:
            raise ValueError("dispatch_latency must be >= 0")
        if self.max_wall_time is not None and self.max_wall_time <= 0:
            raise ValueError("max_wall_time must be > 0")


class Job:
    """A scheduled unit of work bound to one worker node.

    The *body* is a callable ``body(env, worker) -> generator`` executed as a
    simulation process once the job is dispatched.  :attr:`done` is an event
    that fires (successfully) when the job reaches a terminal state; its
    value is the job itself.  A terminal job keeps its id, state, times and
    ``result``/``error`` but no longer its body or process, so a job handle
    does not keep alive whatever the body closed over.
    """

    def __init__(
        self,
        job_id: int,
        name: str,
        queue: str,
        body: Callable[[Environment, WorkerNode], Generator],
        env: Environment,
        preferred: Optional[List[str]] = None,
        vo: Optional[str] = None,
    ) -> None:
        self.id = job_id
        self.name = name
        self.queue = queue
        self.body: Optional[Callable[[Environment, WorkerNode], Generator]] = body
        #: Worker names to try first (data affinity), best first.
        self.preferred = list(preferred or [])
        #: Virtual Organization the submitter belongs to (``None`` =
        #: untagged); drives weighted-fair dispatch within a queue tier.
        self.vo = vo
        self.state = JobState.PENDING
        self.worker: Optional[WorkerNode] = None
        self.submit_time = env.now
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.result: object = None
        self.error: Optional[BaseException] = None
        self.done: Event = env.event()
        self._process: Optional[Process] = None

    @property
    def wait_time(self) -> Optional[float]:
        """Queue wait (submit → start), once started."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Job {self.id} {self.name!r} {self.state}>"


class BatchScheduler:
    """Multi-queue scheduler over a :class:`ComputeElement`'s workers."""

    def __init__(
        self,
        env: Environment,
        element: ComputeElement,
        obs: Optional[Observability] = None,
    ) -> None:
        self.env = env
        self.element = element
        self.obs = obs or NULL_OBS
        self._queues: Dict[str, QueueSpec] = {}
        self._pending: List[Job] = []
        self._job_seq = count(1)
        self._jobs: Dict[int, Job] = {}
        #: Worker name -> the job running on it.
        self._running: Dict[str, Job] = {}
        self._wakeup: Event = env.event()
        self._idle: List[WorkerNode] = list(element.workers)
        #: Workers the anomaly monitor flagged as stragglers: still
        #: schedulable (a hint, not a ban) but chosen only when no
        #: unflagged worker is available.
        self._deprioritized: set = set()
        #: VO -> fair-share weight (default 1.0); drives the weighted-
        #: fair rank used within a queue-priority tier.
        self._vo_weights: Dict[Optional[str], float] = {}
        #: VO -> jobs dispatched so far (the WFQ virtual-service count).
        self._vo_served: Dict[Optional[str], int] = {}
        env.process(self._dispatcher())

    # -- configuration --------------------------------------------------
    def add_queue(self, spec: QueueSpec) -> None:
        """Register a queue; names must be unique."""
        if spec.name in self._queues:
            raise SchedulerError(f"queue {spec.name!r} already exists")
        self._queues[spec.name] = spec

    def set_vo_weight(self, vo: str, weight: float) -> None:
        """Set a VO's fair-share weight for dispatch (default 1.0)."""
        if weight <= 0:
            raise SchedulerError("weight must be > 0")
        self._vo_weights[vo] = weight

    def vo_served(self, vo: Optional[str]) -> int:
        """Jobs dispatched so far for *vo* (WFQ bookkeeping)."""
        return self._vo_served.get(vo, 0)

    def _wfq_rank(self, vo: Optional[str]) -> float:
        """Weighted-fair rank: lower = more underserved.

        With a single VO (or every job untagged) all pending jobs share
        one rank and dispatch degenerates to the original submission
        (job-id) order — existing single-tenant behaviour is unchanged.
        """
        return self._vo_served.get(vo, 0) / self._vo_weights.get(vo, 1.0)

    @property
    def queues(self) -> Dict[str, QueueSpec]:
        """All registered queues by name."""
        return dict(self._queues)

    # -- submission -------------------------------------------------------
    def submit(
        self,
        name: str,
        queue: str,
        body: Callable[[Environment, WorkerNode], Generator],
        preferred: Optional[List[str]] = None,
        vo: Optional[str] = None,
    ) -> Job:
        """Queue a job; returns the :class:`Job` handle immediately.

        *preferred* names workers to place the job on if idle and healthy
        (data-affinity hint from the replica catalog: land the engine
        where its dataset parts are already cached); placement falls back
        to the first idle worker when none of them is available.  *vo*
        tags the job for weighted-fair dispatch between VOs sharing a
        queue tier.
        """
        if queue not in self._queues:
            raise SchedulerError(f"unknown queue {queue!r}")
        job = Job(
            next(self._job_seq), name, queue, body, self.env,
            preferred=preferred, vo=vo,
        )
        self._jobs[job.id] = job
        self._pending.append(job)
        self._kick()
        return job

    def job(self, job_id: int) -> Job:
        """Look up a job by id."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job id {job_id}") from None

    def cancel(self, job_id: int, reason: object = "cancelled") -> None:
        """Cancel a pending or running job (idempotent on terminal jobs)."""
        job = self.job(job_id)
        if job.state in JobState.TERMINAL:
            return
        if job.state == JobState.PENDING:
            self._pending.remove(job)
            self._finish(job, JobState.CANCELLED)
        elif job._process is not None and job._process.is_alive:
            job._process.interrupt(reason)

    # -- introspection ----------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Jobs waiting for a worker."""
        return len(self._pending)

    @property
    def running_count(self) -> int:
        """Jobs currently executing."""
        return len(self._running)

    @property
    def idle_worker_count(self) -> int:
        """Workers with no job assigned."""
        return len(self._idle)

    @property
    def available_worker_count(self) -> int:
        """Idle workers that are healthy (dispatchable)."""
        return sum(1 for w in self._idle if not w.failed)

    def running_job_on(self, worker_name: str) -> Optional[Job]:
        """The job currently running on *worker_name*, if any."""
        return self._running.get(worker_name)

    def restore_worker(self, name: str) -> None:
        """Mark a failed worker healthy again and make it dispatchable."""
        worker = self.element.worker(name)
        worker.failed = False
        worker.slow_factor = 1.0
        if not worker.busy and worker not in self._idle:
            self._idle.append(worker)
        self.restore_priority(name)
        self._kick()

    # -- placement hints ---------------------------------------------------
    def deprioritize(self, name: str) -> None:
        """Hint: place new jobs on *name* only as a last resort.

        Fed by straggler detection; idempotent, and never blocks
        placement — with every worker deprioritized, dispatch proceeds
        as if none were.
        """
        self.element.worker(name)  # validate the name
        self._deprioritized.add(name)
        self.obs.metrics.gauge(
            "scheduler_deprioritized_workers",
            "Workers currently hinted away from new placements",
        ).set(len(self._deprioritized))

    def restore_priority(self, name: str) -> None:
        """Drop the deprioritization hint for *name* (idempotent)."""
        self._deprioritized.discard(name)
        self.obs.metrics.gauge(
            "scheduler_deprioritized_workers",
            "Workers currently hinted away from new placements",
        ).set(len(self._deprioritized))

    @property
    def deprioritized(self) -> List[str]:
        """Currently deprioritized worker names, sorted."""
        return sorted(self._deprioritized)

    # -- internals --------------------------------------------------------
    def _kick(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _dispatcher(self):
        while True:
            # Dispatch as many jobs as there are idle workers, in
            # (queue priority, weighted-fair VO rank, submission order)
            # order.  Each job lands on its first available preferred
            # worker (data affinity), or the first idle worker when it
            # has no reachable preference.
            while self._pending:
                healthy = [w for w in self._idle if not w.failed]
                if not healthy:
                    break
                job = min(
                    self._pending,
                    key=lambda j: (
                        self._queues[j.queue].priority,
                        self._wfq_rank(j.vo),
                        j.id,
                    ),
                )
                self._vo_served[job.vo] = self._vo_served.get(job.vo, 0) + 1
                # Straggler hints demote workers without banning them:
                # both the data-affinity preference list and the
                # first-idle fallback try unflagged workers first, and a
                # flagged worker is still used when it is all that's left.
                demoted = self._deprioritized
                candidates = sorted(
                    healthy, key=lambda w: w.name in demoted
                )  # stable: keeps idle order within each tier
                worker = None
                for name in sorted(
                    job.preferred,
                    key=lambda n: (n in demoted, job.preferred.index(n)),
                ):
                    worker = next(
                        (w for w in candidates if w.name == name), None
                    )
                    if worker is not None:
                        break
                if worker is None:
                    worker = candidates[0]
                self._pending.remove(job)
                self._idle.remove(worker)
                self.env.process(self._run_job(job, worker))
            yield self._wakeup
            self._wakeup = self.env.event()

    def _run_job(self, job: Job, worker: WorkerNode):
        spec = self._queues[job.queue]
        if spec.dispatch_latency:
            yield self.env.timeout(spec.dispatch_latency)
        job.state = JobState.RUNNING
        job.start_time = self.env.now
        job.worker = worker
        self._running[worker.name] = job
        worker.engine_id = f"job-{job.id}"
        self.obs.metrics.histogram(
            "scheduler_queue_wait_seconds",
            "Queue wait from job submit to dispatch (simulated seconds)",
        ).observe(job.wait_time, queue=job.queue)
        self.obs.metrics.counter(
            "scheduler_jobs_started_total", "Jobs dispatched to a worker"
        ).inc(queue=job.queue)
        body_proc = self.env.process(job.body(self.env, worker))
        job._process = body_proc

        watchdog: Optional[Process] = None
        if spec.max_wall_time is not None:
            watchdog = self.env.process(
                self._watchdog(body_proc, spec.max_wall_time)
            )
        try:
            job.result = yield body_proc
            job_state = JobState.COMPLETED
        except Interrupt as intr:
            if isinstance(intr.cause, NodeFailure):
                # Infrastructure failure, not a user cancel: the job failed
                # and the node is unusable until explicitly restored.
                job.error = intr.cause
                job_state = JobState.FAILED
                worker.failed = True
            else:
                job.error = intr
                job_state = (
                    JobState.KILLED
                    if intr.cause == "wall-time"
                    else JobState.CANCELLED
                )
        except NodeFailure as exc:  # body observed its node failing
            job.error = exc
            job_state = JobState.FAILED
            worker.failed = True
        except BaseException as exc:  # job body crashed
            job.error = exc
            job_state = JobState.FAILED
        if watchdog is not None and watchdog.is_alive:
            watchdog.interrupt("job-done")
        worker.engine_id = None
        if not worker.failed:
            self._idle.append(worker)
        self._finish(job, job_state)
        self._kick()

    def _watchdog(self, body_proc: Process, limit: float):
        try:
            yield self.env.timeout(limit)
        except Interrupt:
            return  # job finished in time
        if body_proc.is_alive:
            body_proc.interrupt("wall-time")

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        job.end_time = self.env.now
        job.body = None
        job._process = None
        # The kept error would otherwise keep, through its traceback, the
        # locals of every frame of the body it crossed (engine, event
        # data); the line numbers stay.
        error, seen = job.error, set()
        while error is not None and id(error) not in seen:
            seen.add(id(error))
            traceback.clear_frames(error.__traceback__)
            error = error.__cause__ or error.__context__
        if job.worker is not None:
            del self._running[job.worker.name]
        self.obs.metrics.counter(
            "scheduler_jobs_finished_total", "Jobs reaching a terminal state"
        ).inc(queue=job.queue, state=state)
        if not job.done.triggered:
            job.done.succeed(job)
