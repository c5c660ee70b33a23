"""Live ASCII status board: nodes × phase, the latency objective, events.

The GRAPPA portal's lesson (PAPERS.md) is that a grid analysis framework
needs an *operator surface*, not just logs: one glance should answer "are
my engines healthy, is the latency objective holding, what just
happened".  This module renders exactly that board, two ways:

* :func:`render_board` — live, mid-run, from the :class:`Observability`
  handle plus (optionally) a session service: per-node engine progress,
  the poll-latency objective with error-budget burn, and the newest
  events;
* :func:`board_from_jsonl` — offline, from exported JSONL artifacts
  (events / profile / spans), for post-mortems and the chaos CI job.

The objective is checked at read time: :func:`poll_objective` folds the
finished ``call:aida.merged`` spans the tracer already keeps, so the live
board (the tracer's spans) and the offline one (``spans.jsonl``) report
the same numbers and nothing is recorded for it while the run goes.

Every section degrades gracefully: with ``NULL_OBS`` the board still
renders, stating that telemetry is disabled.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.obs.events import Event, events_from_jsonl, render_events
from repro.obs.exporters import (
    phase_summary_records,
    span_to_dict,
    spans_from_jsonl,
)
from repro.obs.profile import profile_from_jsonl, render_profile


def progress_bar(fraction: float, width: int = 20) -> str:
    """``[####....]`` bar for a 0..1 fraction (clamped)."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(width * fraction))
    return "[" + "#" * filled + "." * (width - filled) + "]"


# -- section renderers (shared by live and offline boards) ----------------

def nodes_section(
    engines: List[Dict[str, object]], bar_width: int = 16
) -> List[str]:
    """Per-engine rows: worker, state, progress bar.

    *engines* rows carry ``engine_id`` / ``worker`` / ``cursor`` /
    ``total`` / ``state`` (the shape ``SessionService.status`` returns).
    Rows are ordered by engine index (``engine-2`` before ``engine-10``)
    and every column is as wide as its widest cell, so the bars line up.
    A slow engine shows as a lagging bar.
    """
    if not engines:
        return ["  (no engines)"]
    cells = [
        (
            str(row.get("worker") or "?"),
            str(row.get("engine_id")),
            str(row.get("state") or "?"),
            int(row.get("cursor") or 0),
            int(row.get("total") or 0),
        )
        for row in engines
    ]
    cells.sort(key=lambda cell: _engine_order(cell[1]))
    worker_w, engine_w, state_w = (
        max(len(cell[column]) for cell in cells) for column in range(3)
    )
    return [
        f"  {worker:<{worker_w}} {engine:<{engine_w}} {state:<{state_w}} "
        f"{progress_bar(cursor / total if total else 0.0, bar_width)} "
        f"{cursor:>8}/{total}"
        for worker, engine, state, cursor, total in cells
    ]


def _engine_order(engine_id: str):
    """Sort key: the id's prefix, then its trailing index as a number."""
    prefix, _, index = engine_id.rpartition("-")
    return (prefix, int(index)) if index.isdigit() else (engine_id, -1)


#: The interactivity objective (§2.3 "within the limits of human
#: tolerance"): the p99 latency of merged-result polls over any 60
#: simulated seconds stays below 250 ms, judged once 5 polls are in window.
POLL_SPAN = "call:aida.merged"
OBJECTIVE_S = 0.25
QUANTILE = 0.99
WINDOW_S = 60.0
MIN_SAMPLES = 5


def exact_quantile(values: List[float], q: float) -> float:
    """*q*-quantile of sorted *values*, linear between order statistics."""
    if not values:
        return float("nan")
    position = q * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def poll_objective(
    spans: Iterable[Dict[str, object]], now: Optional[float] = None
) -> Dict[str, object]:
    """Fold finished span records into the poll-latency objective.

    The samples are the served ``call:aida.merged`` spans (status ``ok``;
    latency ``end - start``).  The rule is replayed at each completion in
    end order over an exact reservoir of the window ``(t - 60, t]``: the
    objective breaches when the window's p99 exceeds it and recovers when
    the p99 falls back, and nothing breaches below 5 samples.  The row
    reads the window at *now*, no earlier than the last completion
    (default: that completion); ``burn`` is the window's over-objective
    share relative to the 1 % budget.
    """
    samples = sorted(
        (
            (span["end"], span["end"] - span["start"])
            for span in spans
            if span["name"] == POLL_SPAN and span["status"] == "ok"
        ),
        key=lambda sample: sample[0],
    )
    window: deque = deque()
    breached = False
    breaches = []
    for end, latency in samples:
        window.append((end, latency))
        while window[0][0] <= end - WINDOW_S:
            window.popleft()
        if len(window) < MIN_SAMPLES:
            continue
        estimate = exact_quantile(sorted(v for _, v in window), QUANTILE)
        if (estimate > OBJECTIVE_S) != breached:
            breached = not breached
            if breached:
                breaches.append((end, estimate, len(window)))
    if now is None:
        now = samples[-1][0] if samples else 0.0
    latencies = [v for t, v in window if t > now - WINDOW_S]
    burn = (
        sum(v > OBJECTIVE_S for v in latencies) / len(latencies)
        / (1.0 - QUANTILE)
        if latencies
        else 0.0
    )
    return {
        "name": "poll-latency",
        "p99": exact_quantile(sorted(latencies), QUANTILE),
        "samples": len(latencies),
        "breached": breached,
        "budget": max(0.0, 1.0 - burn),
        "burn": burn,
        "breaches": breaches,
    }


def slo_section(row: Dict[str, object]) -> List[str]:
    """The objective's gauge row, then one line per breach instant."""
    p99 = row["p99"]
    lines = [
        "  {name:<16} p{q:<4} {est} / {obj:.3f}s  {state:<6} "
        "budget {budget:>4.0%}  burn {burn:4.1f}x  "
        "({n} samples/{w:.0f}s)".format(
            name=row["name"],
            q=f"{QUANTILE * 100:g}",
            est="    --" if p99 != p99 else f"{p99:6.3f}s",
            obj=OBJECTIVE_S,
            state="BREACH" if row["breached"] else "ok",
            budget=row["budget"],
            burn=row["burn"],
            n=row["samples"],
            w=WINDOW_S,
        )
    ]
    lines.extend(
        f"  breach at t={time:.2f}s: p99 {estimate:.3f}s over {n} samples"
        for time, estimate, n in row["breaches"]
    )
    return lines


def events_section(events: List[Event], limit: int = 8) -> List[str]:
    """The newest events, one line each."""
    if not events:
        return ["  (no events)"]
    return [
        "  " + line
        for line in render_events(events, limit=limit).splitlines()
    ]


def sites_section(rows: List[Dict[str, object]]) -> List[str]:
    """Per-site federation panel rows (from ``Federation.stats()``).

    Each row carries ``site`` / ``sessions`` / ``active_sessions`` /
    ``resident_replica_mb`` / ``wan_in_mb`` / ``wan_out_mb`` /
    ``admission_backlog`` / ``partitioned``.
    """
    if not rows:
        return ["  (no sites)"]
    lines = []
    for row in rows:
        lines.append(
            "  {site:<8} sessions {sessions:>3} (live {active:>2})  "
            "replicas {resident:>8.1f} MB  wan in/out "
            "{wan_in:>8.1f}/{wan_out:<8.1f} MB  backlog {backlog:>3}"
            "{mark}".format(
                site=str(row.get("site") or "?"),
                sessions=int(row.get("sessions") or 0),
                active=int(row.get("active_sessions") or 0),
                resident=float(row.get("resident_replica_mb") or 0.0),
                wan_in=float(row.get("wan_in_mb") or 0.0),
                wan_out=float(row.get("wan_out_mb") or 0.0),
                backlog=int(row.get("admission_backlog") or 0),
                mark="  << PARTITIONED" if row.get("partitioned") else "",
            )
        )
    return lines


# -- boards ----------------------------------------------------------------

def render_board(
    obs,
    session_service=None,
    session_id: Optional[str] = None,
    max_events: int = 8,
    federation=None,
) -> str:
    """The live board, renderable at any simulated time.

    With a *session_service* and *session_id* the per-node section shows
    that session's engines; otherwise it is omitted.  With a
    *federation* (a :class:`~repro.federation.topology.Federation`) a
    per-site panel is prepended — sessions brokered, resident replica
    bytes, WAN traffic, admission backlog, partition state.  The
    objective (folded from the tracer's spans at ``env.now``) and event
    sections come from the :class:`~repro.obs.Observability` handle and
    say so when telemetry is disabled.
    """
    now = getattr(getattr(obs, "env", None), "now", None)
    header = "== ipa status board"
    if now is not None:
        header += f" @ t={now:.1f}s"
    if session_id is not None:
        header += f"  session {session_id}"
    lines = [header + " =="]

    if federation is not None:
        stats = federation.stats()
        lines.append(
            "sites ({brokered} brokered, {failovers} failovers, "
            "{migrations} migrations, {evictions} evictions):".format(
                **stats
            )
        )
        lines.extend(sites_section(stats["sites"]))

    if session_service is not None and session_id is not None:
        status = session_service.status(session_id)
        lines.append("nodes:")
        lines.extend(nodes_section(status["engines"]))
        if status["orphaned_parts"]:
            lines.append(
                f"  orphaned parts: {status['orphaned_parts']}"
            )

    if not getattr(obs, "enabled", False):
        lines.append("telemetry: (observability disabled)")
        return "\n".join(lines)

    lines.append("slo:")
    spans = map(span_to_dict, obs.tracer.finished_spans())
    lines.extend(slo_section(poll_objective(spans, now=obs.env.now)))

    lines.append(f"events (last {max_events}):")
    lines.extend(events_section(obs.events.tail(max_events), max_events))
    return "\n".join(lines)


def board_from_jsonl(
    events_text: Optional[str] = None,
    profile_text: Optional[str] = None,
    spans_text: Optional[str] = None,
    max_events: int = 8,
) -> str:
    """Rebuild a board snapshot from exported JSONL artifacts.

    Any subset of the three artifacts may be provided; sections without
    data are omitted.  Used by ``python -m repro.obs dashboard`` and the
    chaos CI job's post-mortem rendering.
    """
    lines = ["== ipa status board (from export) =="]
    rendered_any = False

    if spans_text is not None:
        records = spans_from_jsonl(spans_text)
        lines.append(phase_summary_records(records))
        row = poll_objective(records)
        lines.append(f"slo: {len(row['breaches'])} SLO breaches")
        lines.extend(slo_section(row))
        rendered_any = True

    if profile_text is not None:
        weights = profile_from_jsonl(profile_text)
        lines.append("profile:")
        lines.extend(
            "  " + line
            for line in render_profile(weights, limit=12).splitlines()
        )
        rendered_any = True

    if events_text is not None:
        events = events_from_jsonl(events_text)
        lines.append(f"events: {len(events)} exported")
        federated = [e for e in events if e.kind.startswith("federation_")]
        partitions = [e for e in events if e.kind == "site_partitioned"]
        if federated or partitions:
            brokered = sum(
                1 for e in federated if e.kind == "federation_session_brokered"
            )
            failovers = sum(
                1 for e in federated if e.kind == "federation_failover"
            )
            migrations = sum(
                1 for e in federated if e.kind == "federation_replica_migrated"
            )
            lines.append(
                f"federation: {brokered} brokered, {failovers} failovers, "
                f"{migrations} migrations, {len(partitions)} partitions"
            )
        lines.extend(events_section(events[-max_events:], max_events))
        rendered_any = True

    if not rendered_any:
        lines.append("(no artifacts provided)")
    return "\n".join(lines)
