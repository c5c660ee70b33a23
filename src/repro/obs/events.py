"""Bounded structured event log with JSONL export.

Metrics answer "how much"; traces answer "where did the time go"; the
event log answers "what happened" — the discrete, operator-significant
state transitions of a run: a fault was detected, an engine was
quarantined, a replica was evicted, a checkpoint committed.  Every
record is typed (``kind``), timestamped on the simulated clock, and
carries free-form attributes.

The log is **bounded**: it keeps the newest ``capacity`` events and
counts what it dropped, so a week-long chaos run cannot grow it without
limit.  Per-kind all-time counts survive eviction.

When observability is disabled, :data:`NULL_EVENT_LOG` swallows
everything at the cost of one attribute lookup and call — the same
contract as the null tracer and registry.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


#: Canonical event kinds emitted by the instrumented runtime.  ``emit``
#: accepts any kind string — this tuple documents (and tests pin) the
#: vocabulary the built-in instrumentation uses.
EVENT_KINDS = (
    "session_created",
    "session_closed",
    "session_admitted",
    "admission_rejected",
    "fault_injected",
    "fault_detected",
    "engine_quarantined",
    "engine_redispatched",
    "spare_start_failed",
    "replica_evicted",
    "replica_invalidated",
    "transfer_failed",
    "gram_unavailable",
    "checkpoint_committed",
    "service_crash",
    "service_recovered",
    "tier_configured",
    "combiner_crash",
    "combiner_retired",
    "federation_session_brokered",
    "federation_failover",
    "federation_replica_migrated",
    "federation_replica_evicted",
    "site_partitioned",
    "site_healed",
)

#: Recognised severities, in increasing order of alarm.
SEVERITIES = ("debug", "info", "warning", "error")


@dataclass(frozen=True)
class Event:
    """One structured event on the simulated clock."""

    seq: int
    time: float
    kind: str
    severity: str = "info"
    message: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (what the JSONL export contains)."""
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Event":
        """Rebuild an event from its dict form."""
        return cls(
            seq=int(record["seq"]),
            time=float(record["time"]),
            kind=str(record["kind"]),
            severity=str(record.get("severity", "info")),
            message=str(record.get("message", "")),
            attrs=dict(record.get("attrs", {})),
        )


class EventLog:
    """Bounded in-memory log of :class:`Event` records.

    Parameters
    ----------
    env:
        Simulation environment (events are stamped with ``env.now``).
    capacity:
        Newest events kept; older ones are dropped (and counted in
        :attr:`dropped`).
    """

    enabled = True

    def __init__(self, env, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}
        #: Events evicted by the capacity bound (all-time).
        self.dropped = 0
        self._seq = 0

    # -- emission ---------------------------------------------------------
    def emit(
        self,
        kind: str,
        /,
        message: str = "",
        severity: str = "info",
        **attrs: Any,
    ) -> Event:
        """Record one event now, evicting the oldest at capacity."""
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self._seq += 1
        event = Event(
            seq=self._seq,
            time=self.env.now,
            kind=kind,
            severity=severity,
            message=message,
            attrs=attrs,
        )
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        return event

    # -- queries ----------------------------------------------------------
    def events(
        self,
        kind: Optional[str] = None,
        severity: Optional[str] = None,
        since: Optional[float] = None,
    ) -> List[Event]:
        """Retained events (oldest first), optionally filtered."""
        out = []
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if severity is not None and event.severity != severity:
                continue
            if since is not None and event.time < since:
                continue
            out.append(event)
        return out

    def tail(self, n: int = 10) -> List[Event]:
        """The newest *n* retained events, oldest first."""
        if n <= 0:
            return []
        return list(self._events)[-n:]

    def counts(self) -> Dict[str, int]:
        """All-time per-kind emit counts (survive capacity eviction)."""
        return dict(sorted(self._counts.items()))

    def __len__(self) -> int:
        return len(self._events)

    # -- export -----------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize the retained events, one JSON object per line."""
        return "\n".join(
            json.dumps(event.to_dict(), sort_keys=True)
            for event in self._events
        )


def events_from_jsonl(text: str) -> List[Event]:
    """Parse a JSONL event dump back into :class:`Event` records."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            out.append(Event.from_dict(json.loads(line)))
    return out


def render_events(
    events: List[Event], limit: Optional[int] = None
) -> str:
    """Human-readable one-line-per-event rendering (newest last)."""
    rows = events[-limit:] if limit is not None else events
    if not rows:
        return "(no events)"
    lines = []
    for event in rows:
        attrs = " ".join(
            f"{k}={event.attrs[k]}" for k in sorted(event.attrs)
        )
        parts = [f"[{event.time:10.2f}]", f"{event.severity:<7}", event.kind]
        if event.message:
            parts.append(event.message)
        if attrs:
            parts.append(f"({attrs})")
        lines.append(" ".join(parts))
    return "\n".join(lines)


class NullEventLog:
    """Event log stand-in whose every operation is free (or nearly so)."""

    enabled = False
    env = None
    capacity = 0
    dropped = 0

    def emit(self, kind, /, message="", severity="info", **attrs) -> None:
        return None

    def events(self, kind=None, severity=None, since=None) -> list:
        return []

    def tail(self, n: int = 10) -> list:
        return []

    def counts(self) -> dict:
        return {}

    def to_jsonl(self) -> str:
        return ""

    def __len__(self) -> int:
        return 0


NULL_EVENT_LOG = NullEventLog()
