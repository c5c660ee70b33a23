"""Drive loop, client-side session drivers, watchdogs, end-to-end metrics.

The harness steps the simulation itself (``Environment.step()`` /
``peek()``) so it can count kernel events and stop a run that no longer
makes progress; all load comes from generator processes it starts inside
that one loop.  Nothing here measures host time per layer -- that is
``tracing.py``, active only in the traced repetition.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from typing import Callable, Dict, List, Optional

from repro.client.plugins import RemoteDataPlugin
from repro.services.envelope import Fault
from repro.resilience.faults import ServiceUnavailable

#: A session still running this long after it was due has missed its deadline.
SESSION_DEADLINE_S = 3000.0
#: Sim seconds after the last due arrival at which the workload is cut off.
HORIZON_AFTER_LAST_DUE_S = 1500.0
#: Kernel events per attempted session before the run is declared runaway
#: (sizing: ~900 events/session on fed_open_loop, ~125 k on poll_storm).
EVENT_BUDGET_PER_SESSION = 1_000_000
#: Host seconds one repetition may take (the contract allows 180 s per run).
HOST_TIMEOUT_S = 90.0


class SessionFailed(Exception):
    """Raised inside a session driver; becomes the record's failure reason."""


class SessionRecord:
    """Client-side timeline of one session (sim seconds) and its outcome."""

    __slots__ = (
        "index", "dataset", "n_engines", "vo", "due", "poll_interval",
        "reference", "t_connected", "t_staged", "t_code", "t_run", "t_first",
        "t_final", "t_closed", "polls", "staged",
        "tree", "digest", "failed", "n_events", "recovery",
    )

    def __init__(self, index, dataset, n_engines, vo, due, poll_interval, reference, n_events):
        self.index = index
        self.dataset = dataset
        self.n_engines = n_engines
        self.vo = vo
        self.due = due
        self.poll_interval = poll_interval
        #: Key of the oracle tree this session must reproduce.
        self.reference = reference
        self.n_events = n_events
        self.t_connected = self.t_staged = self.t_code = self.t_run = None
        self.t_first = self.t_final = self.t_closed = None
        self.polls = 0
        #: Last status() summary seen (carries recoveries and re-dispatches).
        self.recovery = None
        self.staged = None
        self.tree = None
        self.digest = None
        self.failed: Optional[str] = None

    @property
    def sojourn(self) -> Optional[float]:
        return None if self.t_final is None else self.t_final - self.due

    @property
    def first_result(self) -> Optional[float]:
        if self.t_first is None or self.t_run is None:
            return None
        return self.t_first - self.t_run


class Stage:
    """One simulation environment and the session processes run in it."""

    def __init__(self, env, launch: Callable[[], list], horizon: float):
        self.env = env
        self.launch = launch
        #: Sim time at which sessions still alive are cut off and counted failed.
        self.horizon = horizon


class Workload:
    """What a builder in ``workloads.py`` returns."""

    def __init__(self, name: str):
        self.name = name
        self.stages: List[Stage] = []
        self.sessions: List[SessionRecord] = []
        #: Every poll round trip (sim s), sessions and viewers alike.
        self.poll_s: List[float] = []
        #: reference key -> kwargs for ``oracle.reference_tree``.
        self.references: Dict[str, dict] = {}
        #: Sites and federation, for the per-layer counters read after a run.
        self.sites: list = []
        self.federation = None
        #: Extra (non-session) work inside the timed region: () -> physics events.
        self.extra_work: Optional[Callable[[], int]] = None
        #: Callbacks run after the timed region to check workload-specific results.
        self.checks: List[Callable[[], List[str]]] = []
        #: Set for the traced repetition only (``tracing.Tracer``).
        self.tracer = None
        self.steps = 0
        #: Timed region (first env.step() -> last session closed) in CPU
        #: seconds of this process, and in wall seconds.  The simulator is
        #: single-threaded and does no I/O, so the two agree on a quiet
        #: machine; CPU time is what the host metrics use because a noisy
        #: neighbour (steal, time-sharing) inflates wall time by tens of
        #: percent for minutes at a stretch on the reference box.
        self.host_region_s = 0.0
        self.wall_region_s = 0.0
        self.aborted: Optional[str] = None
        self.extra_physics_events = 0
        self.fidelity_err_pct: Optional[float] = None
        #: Sessions dict-equal to the oracle / equal only up to float fold order.
        self.oracle_exact = 0
        self.oracle_fold_order = 0


    def spawn(self, env, generator, session=None):
        """``env.process`` that tells an active tracer whose session this is."""
        if self.tracer is None:
            return env.process(generator)
        self.tracer.session_hint = session
        try:
            return env.process(generator)
        finally:
            self.tracer.session_hint = None


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (an actual sample); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tree_digest(tree_dict: dict) -> str:
    canonical = json.dumps(tree_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- session driver ----------------------------------------------------


def drive_session(
    workload: Workload,
    record: SessionRecord,
    env,
    client,
    connect: Callable,
    source: str,
    on_run: Optional[Callable] = None,
):
    """Generator process: one analyst working through the Fig. 2 workflow.

    *client* is an ``IPAClient`` or ``FederatedClient``; *connect* is the
    generator op that opens its session.  Arrivals are open loop: the
    process sleeps until the pre-drawn due time whatever the system is
    doing, and every duration is measured from that due time.
    """
    if record.due > env.now:
        yield env.timeout(record.due - env.now)
    deadline = record.due + SESSION_DEADLINE_S

    try:
        info = yield from connect(client)
        record.t_connected = env.now
        record.staged = yield from client.select_dataset(record.dataset)
        record.t_staged = env.now
        yield from client.upload_code(source)
        record.t_code = env.now
        yield from client.run()
        record.t_run = env.now
        if on_run is not None:
            on_run(record, info)
        while True:
            started, site = env.now, client.site
            result = yield from client.poll()
            if client.site is site:
                # A poll that failed over replayed the whole workflow at
                # another site: that time is in the sojourn, it is not a
                # poll latency.
                workload.poll_s.append(env.now - started)
            record.polls += 1
            progress = result.progress
            if record.t_first is None and progress.events_processed > 0:
                record.t_first = env.now
            expected = progress.expected_engines
            if expected is None:
                expected = record.n_engines
            if progress.engines_reporting >= expected and progress.complete:
                break
            summary = record.recovery = yield from client.status()
            if summary["failures"]:
                raise SessionFailed(f"engine job failed: {summary['failures'][0]['error']}")
            if summary.get("unrecoverable"):
                raise SessionFailed("session unrecoverable: no engine and no spare left")
            if env.now >= deadline:
                raise SessionFailed(f"deadline: not complete {SESSION_DEADLINE_S:.0f} s after due")
            yield env.timeout(record.poll_interval)
        record.t_final = env.now
        record.tree = result.tree
        record.staged = client.staged
        yield from client.close()
        record.t_closed = env.now
    except Exception as exc:  # the harness must keep running and report the failure
        record.failed = f"{type(exc).__name__}: {exc}"
        record.t_closed = env.now


def drive_viewer(workload: Workload, env, container, record, info, client_id, phase, interval):
    """Generator process: an extra poller attached to someone else's session."""
    plugin = RemoteDataPlugin(container, client_id=client_id)
    plugin.bind(info.session_id, info.token)
    yield env.timeout(phase)
    while record.t_final is None and record.failed is None:
        started = env.now
        try:
            yield from plugin.poll()
        except (Fault, ServiceUnavailable):
            return  # the session closed under us: the token is revoked
        workload.poll_s.append(env.now - started)
        yield env.timeout(interval)


# -- the step loop -----------------------------------------------------


def run_workload(workload: Workload) -> None:
    """Run every stage to completion (or to a watchdog); fills the records.

    The timed region is first ``env.step()`` -> last session closed.
    """
    budget = EVENT_BUDGET_PER_SESSION * max(1, len(workload.sessions))
    steps = 0
    region_start = time.perf_counter()
    cpu_start = time.process_time()
    host_deadline = region_start + HOST_TIMEOUT_S
    tracer = workload.tracer
    for stage in workload.stages:
        env = stage.env
        if tracer is not None:
            tracer.begin_region(env)
        procs = stage.launch()
        alive = [len(procs)]

        def _done(_event, alive=alive):
            alive[0] -= 1

        for proc in procs:
            proc.callbacks.append(_done)
        horizon = stage.horizon
        step = env.step
        peek = env.peek
        try:
            while alive[0] > 0:
                if peek() > horizon:
                    workload.aborted = f"sim horizon {horizon:.0f} s reached"
                    break
                step()
                steps += 1
                if not steps & 0xFFF:
                    if steps > budget:
                        workload.aborted = f"event budget {budget} exhausted"
                        break
                    if time.perf_counter() > host_deadline:
                        workload.aborted = f"host timeout {HOST_TIMEOUT_S:.0f} s"
                        break
        except Exception as exc:  # an unobserved process failure escaped the kernel
            workload.aborted = f"exception out of env.step(): {type(exc).__name__}: {exc}"
        if workload.aborted:
            break
    if workload.extra_work is not None and not workload.aborted:
        workload.extra_physics_events = workload.extra_work()
    workload.host_region_s = time.process_time() - cpu_start
    workload.wall_region_s = time.perf_counter() - region_start
    workload.steps = steps
    for record in workload.sessions:
        if record.failed is None and record.t_closed is None:
            record.failed = f"still running when the run stopped ({workload.aborted})"


# -- end-to-end metrics ------------------------------------------------


def sim_metrics(workload: Workload) -> Dict[str, float]:
    """Sim-clock metrics plus counts; identical for identical (commit, seed)."""
    done = [r for r in workload.sessions if r.failed is None]
    sojourn = [r.sojourn for r in done]
    first = [r.first_result for r in done if r.first_result is not None]
    polls = workload.poll_s
    if len(workload.stages) == 1:
        ends = [r.t_closed for r in workload.sessions if r.t_closed is not None]
        first_due = min(r.due for r in workload.sessions)
        makespan = (max(ends) - first_due) if ends else 0.0
    else:  # closed loop, one environment per session
        makespan = sum(r.t_closed - r.due for r in workload.sessions if r.t_closed is not None)
    return {
        "session_sim_s.p50": percentile(sojourn, 50),
        "session_sim_s.mean": sum(sojourn) / len(sojourn) if sojourn else 0.0,
        "first_result_sim_s.p50": percentile(first, 50),
        "first_result_sim_s.p90": percentile(first, 90),
        "poll_sim_s.mean": sum(polls) / len(polls) if polls else 0.0,
        "makespan_sim_s": makespan,
    }


def counts(workload: Workload) -> Dict[str, int]:
    """Exact counters compared between repetitions alongside the sim metrics."""
    done = [r for r in workload.sessions if r.failed is None]
    return {
        "sessions_attempted": len(workload.sessions),
        "sessions_failed": len(workload.sessions) - len(done),
        "kernel_events": workload.steps,
        "polls": len(workload.poll_s),
        "physics_events": sum(r.n_events for r in done) + workload.extra_physics_events,
    }


def host_metrics(workload: Workload) -> Dict[str, float]:
    c = counts(workload)
    region = workload.host_region_s
    return {
        "host_s_per_session": region / c["sessions_attempted"],
        "kernel_events_per_host_s": c["kernel_events"] / region,
        "physics_events_per_host_s": c["physics_events"] / region,
    }
