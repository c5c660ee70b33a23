"""Per-VO fair-share admission control for session engine slots.

The paper's site policy caps engines *per session* (§2.2); nothing stops
one Virtual Organization from admitting enough sessions to starve every
other VO of workers.  This module adds the missing site-level layer:

* a fixed pool of **engine slots** (normally the worker count) that
  session admissions draw from;
* **weighted fair shares** per VO: VO *v*'s quota is
  ``capacity * share(v) / sum(shares)`` over the VOs seen so far, with a
  default share of 1.0 for unconfigured VOs;
* **work conservation**: a VO may borrow past its quota while no other
  VO is waiting — idle slots are never reserved;
* a bounded **per-VO wait queue**, served weighted-fair on release
  (the VO with the smallest ``active/share`` ratio goes first; strict —
  a large request at the head is never bypassed, so it cannot starve);
* `RetryAfter` **backpressure** once the queue is full, carrying a
  deterministic drain-time hint;
* admission gauges/counters and ``session_admitted`` /
  ``admission_rejected`` events on the observability plane.

The controller lives beside the GRAM gatekeeper, outside the session
service, so its slot accounting survives a manager-service crash (the
engines themselves keep running through one).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Mapping, Optional, Tuple

from repro.obs import NULL_OBS, Observability
from repro.services.envelope import RetryAfter
from repro.sim import Environment, Event


#: Base of the ``retry_after`` hint attached to rejections, in seconds.
RETRY_AFTER_S = 5.0


class AdmissionError(Exception):
    """Raised for requests the controller can never satisfy."""


class AdmissionController:
    """Weighted-fair engine-slot admission with backpressure.

    Parameters
    ----------
    env:
        Simulation environment (waits and hints use its clock).
    capacity:
        Total engine slots admissions may hold at once (normally the
        site's worker count).
    shares:
        VO name -> fair-share weight; unlisted VOs weigh 1.0.
    queue_depth:
        Admissions allowed to *wait* per VO when over quota; 0 (default)
        rejects immediately with :class:`RetryAfter`.
    """

    def __init__(
        self,
        env: Environment,
        capacity: int,
        shares: Optional[Mapping[str, float]] = None,
        queue_depth: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        for vo, share in dict(shares or {}).items():
            if share <= 0:
                raise ValueError(f"share for VO {vo!r} must be > 0")
        self.env = env
        self.obs = obs or NULL_OBS
        self.capacity = capacity
        self.queue_depth = queue_depth
        self._shares: Dict[str, float] = dict(shares or {})
        #: VOs that ever requested admission — the quota denominator.
        self._seen: set = set(self._shares)
        self._active: Dict[str, int] = {}
        self._waiters: Dict[str, Deque[Tuple[int, Event]]] = {}
        self._active_gauge = self.obs.metrics.gauge(
            "admission_active_engines",
            "Engine slots currently held, per VO",
        )
        self._queue_gauge = self.obs.metrics.gauge(
            "admission_queue_depth",
            "Session admissions waiting for slots, per VO",
        )
        self._admit_metric = self.obs.metrics.counter(
            "admission_admits_total", "Engine slots granted, per VO"
        )
        self._reject_metric = self.obs.metrics.counter(
            "admission_rejections_total",
            "Session admissions refused with RetryAfter, per VO",
        )
        self._wait_metric = self.obs.metrics.histogram(
            "admission_wait_seconds",
            "Queued-admission wait until grant (simulated seconds)",
        )

    # -- introspection --------------------------------------------------
    def share(self, vo: str) -> float:
        """Fair-share weight of *vo* (1.0 when unconfigured)."""
        return self._shares.get(vo, 1.0)

    def quota(self, vo: str) -> float:
        """Soft slot quota of *vo* given the VOs seen so far."""
        members = self._seen | {vo}
        total = sum(self.share(member) for member in members)
        return self.capacity * self.share(vo) / total

    def active(self, vo: str) -> int:
        """Slots currently held by *vo*."""
        return self._active.get(vo, 0)

    @property
    def active_total(self) -> int:
        """Slots currently held across all VOs."""
        return sum(self._active.values())

    @property
    def free(self) -> int:
        """Slots not currently held."""
        return self.capacity - self.active_total

    def waiting(self, vo: Optional[str] = None) -> int:
        """Queued admissions for one VO, or across all VOs."""
        if vo is not None:
            return len(self._waiters.get(vo, ()))
        return sum(len(queue) for queue in self._waiters.values())

    def would_admit(self, vo: str, n: int = 1) -> bool:
        """Whether ``acquire(vo, n)`` would be granted without waiting.

        Pure read — no slots move, the VO is not marked as seen.  The
        federation broker uses this as the admission-headroom signal when
        scoring candidate sites.
        """
        if n < 1 or n > self.capacity:
            return False
        return self._admissible(vo, n)

    def retry_hint(self) -> float:
        """The ``retry_after`` hint a rejection would carry right now."""
        return self._retry_hint()

    def stats(self) -> dict:
        """Snapshot of the controller state (diagnostics)."""
        vos = sorted(self._seen | set(self._active) | set(self._waiters))
        return {
            "capacity": self.capacity,
            "free": self.free,
            "vos": {
                vo: {
                    "share": self.share(vo),
                    "quota": self.quota(vo),
                    "active": self.active(vo),
                    "waiting": self.waiting(vo),
                }
                for vo in vos
            },
        }

    # -- acquire / release ----------------------------------------------
    def acquire(self, vo: str, n: int = 1):
        """Generator op: obtain *n* engine slots for *vo*.

        Grants immediately when within quota (or borrowing is harmless),
        waits in the VO's bounded queue otherwise, and raises
        :class:`RetryAfter` when the queue is full.  ``yield from`` this
        inside a simulation process.
        """
        if n < 1:
            raise AdmissionError("slot count must be >= 1")
        if n > self.capacity:
            raise AdmissionError(
                f"requested {n} engine slots but the site admits at most "
                f"{self.capacity}"
            )
        self._seen.add(vo)
        if self._admissible(vo, n):
            self._grant(vo, n, waited=0.0)
            return
        queue = self._waiters.setdefault(vo, deque())
        if len(queue) >= self.queue_depth:
            self._reject_metric.inc(vo=vo)
            self.obs.events.emit(
                "admission_rejected",
                message=f"{vo} over quota ({n} slots refused)",
                severity="warning",
                vo=vo,
                engines=n,
                active=self.active(vo),
                quota=self.quota(vo),
            )
            raise RetryAfter(
                f"VO {vo!r} is over its fair share "
                f"({self.active(vo)}/{self.quota(vo):.1f} slots held); "
                f"retry later",
                retry_after=self._retry_hint(),
            )
        grant = self.env.event()
        queue.append((n, grant, self.env.now))
        self._queue_gauge.set(len(queue), vo=vo)
        # Slot accounting happens synchronously inside _serve_waiters the
        # moment the grant fires (so one release sweep can never hand the
        # same slots to two waiters); this just waits for it.
        yield grant

    def release(self, vo: str, n: int = 1) -> None:
        """Return *n* slots and serve queued admissions weighted-fair."""
        if n < 1:
            raise AdmissionError("slot count must be >= 1")
        current = self._active.get(vo, 0)
        self._active[vo] = max(0, current - n)
        self._active_gauge.set(self._active[vo], vo=vo)
        self._serve_waiters()

    # -- internals -------------------------------------------------------
    def _admissible(self, vo: str, n: int) -> bool:
        if n > self.free:
            return False
        if self.active(vo) + n <= self.quota(vo):
            return True
        # Work conservation: borrow past quota while nobody else waits.
        return not any(
            queue for other, queue in self._waiters.items() if other != vo
        )

    def _grant(self, vo: str, n: int, waited: float) -> None:
        self._active[vo] = self._active.get(vo, 0) + n
        self._active_gauge.set(self._active[vo], vo=vo)
        self._admit_metric.inc(n, vo=vo)
        self.obs.events.emit(
            "session_admitted",
            message=f"{vo} granted {n} engine slots",
            severity="debug",
            vo=vo,
            engines=n,
            active=self._active[vo],
            waited_s=waited,
        )

    def _serve_waiters(self) -> None:
        """Grant queued admissions in weighted-fair order.

        Repeatedly picks the waiting VO with the smallest
        ``active/share`` ratio (ties broken by VO name for determinism)
        and wakes its head admission if the slots fit.  Strict: a head
        that does not fit stops the sweep — smaller requests behind it
        never jump the fair-share order.
        """
        while True:
            candidates = [
                (self._active.get(vo, 0) / self.share(vo), vo)
                for vo, queue in sorted(self._waiters.items())
                if queue
            ]
            if not candidates:
                return
            _, vo = min(candidates)
            queue = self._waiters[vo]
            n, grant, enqueued_at = queue[0]
            if n > self.free:
                return
            queue.popleft()
            self._queue_gauge.set(len(queue), vo=vo)
            waited = self.env.now - enqueued_at
            self._wait_metric.observe(waited, vo=vo)
            self._grant(vo, n, waited=waited)
            grant.succeed()

    def _retry_hint(self) -> float:
        """Deterministic backoff hint scaled by the total backlog."""
        return RETRY_AFTER_S * (1 + self.waiting())
