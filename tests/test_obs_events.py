"""Structured event log: bounds, JSONL export, null contract."""

import pytest

from repro.obs import NULL_OBS
from repro.obs.events import (
    EVENT_KINDS,
    NULL_EVENT_LOG,
    SEVERITIES,
    Event,
    EventLog,
    events_from_jsonl,
    render_events,
)


class Clock:
    """Minimal ``env`` stand-in: the log only reads ``.now``."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now


def test_emit_stamps_clock_and_sequences():
    clock = Clock()
    log = EventLog(clock)
    first = log.emit("session_created", message="s-1 up", session="s-1")
    clock.now = 2.5
    second = log.emit("fault_injected", severity="warning")
    assert (first.seq, first.time) == (1, 0.0)
    assert (second.seq, second.time) == (2, 2.5)
    assert first.attrs == {"session": "s-1"}
    assert [e.kind for e in log.events()] == ["session_created", "fault_injected"]
    assert len(log) == 2


def test_kind_is_positional_only_so_attrs_may_be_named_kind():
    # Checkpoint events carry a ``kind`` *attribute* (journal/snapshot);
    # it must land in attrs, not collide with the event kind parameter.
    log = EventLog(Clock())
    event = log.emit("checkpoint_committed", severity="debug", kind="journal")
    assert event.kind == "checkpoint_committed"
    assert event.attrs == {"kind": "journal"}


def test_capacity_bound_drops_oldest_but_counts_survive():
    log = EventLog(Clock(), capacity=3)
    for index in range(10):
        log.emit("fault_injected", index=index)
    assert len(log) == 3
    assert log.dropped == 7
    assert [e.attrs["index"] for e in log.events()] == [7, 8, 9]
    # All-time per-kind counts are not bounded by the retention window.
    assert log.counts() == {"fault_injected": 10}


def test_capacity_and_severity_validation():
    with pytest.raises(ValueError):
        EventLog(Clock(), capacity=0)
    log = EventLog(Clock())
    with pytest.raises(ValueError):
        log.emit("session_created", severity="fatal")


def test_query_filters_and_tail():
    clock = Clock()
    log = EventLog(clock)
    log.emit("session_created")
    clock.now = 5.0
    log.emit("fault_detected", severity="error")
    log.emit("fault_injected", severity="warning")
    assert [e.kind for e in log.events(kind="fault_injected")] == ["fault_injected"]
    assert [e.kind for e in log.events(severity="error")] == ["fault_detected"]
    assert [e.kind for e in log.events(since=5.0)] == [
        "fault_detected",
        "fault_injected",
    ]
    assert [e.kind for e in log.tail(2)] == ["fault_detected", "fault_injected"]
    assert log.tail(0) == []


def test_subscribers_fire_before_eviction():
    # emit hands each event back to its caller, so even one the bound
    # evicts at once is seen in full before it goes.
    log = EventLog(Clock(), capacity=1)
    seen = [log.emit("fault_injected", index=index) for index in range(2)]
    assert [e.attrs["index"] for e in seen] == [0, 1]
    assert len(log) == 1
    assert log.dropped == 1
    assert log.events() == seen[1:]


def test_jsonl_round_trip():
    clock = Clock(1.25)
    log = EventLog(clock)
    log.emit(
        "engine_quarantined",
        message="e3 gone silent",
        severity="warning",
        engine="e3",
        silence_s=12.5,
    )
    log.emit("checkpoint_committed", severity="debug", kind="snapshot")
    restored = events_from_jsonl(log.to_jsonl())
    assert restored == log.events()
    assert isinstance(restored[0], Event)
    assert restored[0].attrs == {"engine": "e3", "silence_s": 12.5}
    assert events_from_jsonl("") == []


def test_render_events():
    log = EventLog(Clock(3.0))
    log.emit(
        "engine_quarantined", message="e5 silent", severity="warning", engine="e5"
    )
    text = render_events(log.events())
    assert "engine_quarantined" in text
    assert "e5 silent" in text
    assert "engine=e5" in text
    assert render_events([]) == "(no events)"
    assert len(render_events(log.tail(10), limit=1).splitlines()) == 1


def test_event_vocabulary_is_pinned():
    # Additions to the instrumentation vocabulary are deliberate API
    # changes — update this pin alongside the emitting call site.
    assert EVENT_KINDS == (
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
        "federation_session_brokered",
        "federation_failover",
        "federation_replica_migrated",
        "federation_replica_evicted",
        "site_partitioned",
        "site_healed",
    )
    assert SEVERITIES == ("debug", "info", "warning", "error")


def test_null_event_log_is_inert():
    null = NULL_OBS.events
    assert null is NULL_EVENT_LOG
    assert null.enabled is False
    assert null.emit("fault_injected", message="x", severity="warning", a=1) is None
    assert null.events() == []
    assert null.tail() == []
    assert null.counts() == {}
    assert null.to_jsonl() == ""
    assert len(null) == 0
