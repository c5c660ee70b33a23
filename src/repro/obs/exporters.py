"""Exporters: JSON-lines traces, Prometheus text metrics, phase summaries.

Three consumption paths for the telemetry the runtime emits:

* **JSON lines** — one object per finished span; round-trips losslessly
  (``spans_from_jsonl(trace_to_jsonl(t))`` rebuilds the identical tree),
  so traces can be dumped to disk and analyzed offline;
* **Prometheus text exposition** — counters/gauges/histograms in the
  ``# HELP`` / ``# TYPE`` format every scraper understands;
* **per-phase summary** — spans carrying a ``phase`` attribute are summed
  into the paper's phase vocabulary (session_setup / move_whole / split /
  move_parts / stage_code / analysis) and rendered as an ASCII table; the
  benchmark tables read the same totals.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer


#: Canonical ordering of the paper's phase vocabulary in summaries.
PHASE_ORDER = (
    "session_setup",
    "move_whole",
    "split",
    "move_parts",
    "stage_code",
    "analysis",
)


# -- traces ---------------------------------------------------------------

def span_to_dict(span: Span) -> Dict[str, Any]:
    """Plain-dict form of one span (what the JSON-lines dump contains)."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "status": span.status,
        "attrs": dict(span.attrs),
    }


def trace_to_jsonl(tracer: Tracer) -> str:
    """Serialize every finished span as one JSON object per line."""
    return "\n".join(
        json.dumps(span_to_dict(span), sort_keys=True)
        for span in tracer.finished_spans()
    )


def spans_from_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse a JSON-lines trace dump back into span dicts."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def build_tree(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest span dicts into parent->children trees (roots returned).

    Children are ordered by start time, then span id; each node gains a
    ``children`` list.  Orphans (parent not in the record set) become
    roots, so partial dumps still produce a usable forest.
    """
    nodes = {rec["span_id"]: dict(rec, children=[]) for rec in records}
    roots: List[Dict[str, Any]] = []
    for rec in sorted(records, key=lambda r: (r["start"], r["span_id"])):
        node = nodes[rec["span_id"]]
        parent = nodes.get(rec.get("parent_id") or "")
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def tracer_tree(tracer: Tracer) -> List[Dict[str, Any]]:
    """The tracer's finished spans as nested trees (see :func:`build_tree`)."""
    return build_tree([span_to_dict(s) for s in tracer.finished_spans()])


def render_tree_records(
    records: List[Dict[str, Any]], max_depth: Optional[int] = None
) -> str:
    """Human-readable indented rendering of span dicts (JSONL records)."""
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        end = node["end"]
        duration = (end - node["start"]) if end is not None else 0.0
        lines.append(
            f"{'  ' * depth}{node['name']}  "
            f"[{node['start']:.2f} .. {end:.2f}]  {duration:.2f}s"
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in build_tree(records):
        walk(root, 0)
    return "\n".join(lines) if lines else "(no finished spans)"


def render_tree(tracer: Tracer, max_depth: Optional[int] = None) -> str:
    """Human-readable indented rendering of the trace forest."""
    return render_tree_records(
        [span_to_dict(s) for s in tracer.finished_spans()], max_depth
    )


# -- metrics --------------------------------------------------------------

def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition spec.

    Backslash, double-quote and newline must be escaped inside the quoted
    label value (in that order — escaping the backslash first keeps the
    transform injective: ``\\n`` and a newline escape differently).
    """
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and newline only (spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(pairs, extra: Optional[str] = None) -> str:
    parts = [f'{k}="{escape_label_value(str(v))}"' for k, v in pairs]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry.metrics:
        if metric.help:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.type_name}")
        if isinstance(metric, Histogram):
            for key in metric.labels_seen():
                labels = dict(key)
                for bound, cumulative in metric.cumulative_counts(**labels):
                    le = "+Inf" if bound == float("inf") else _format_value(bound)
                    le_label = 'le="' + le + '"'
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_format_labels(key, le_label)} {cumulative}"
                    )
                lines.append(
                    f"{metric.name}_sum{_format_labels(key)} "
                    f"{_format_value(metric.total(**labels))}"
                )
                lines.append(
                    f"{metric.name}_count{_format_labels(key)} "
                    f"{metric.count(**labels)}"
                )
        else:
            for key, value in metric.series().items():
                lines.append(
                    f"{metric.name}{_format_labels(key)} "
                    f"{_format_value(float(value))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# -- phase summary --------------------------------------------------------

def phase_totals_records(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Summed durations of span dicts grouped by their ``phase`` attr."""
    totals: Dict[str, float] = {}
    for record in records:
        phase = (record.get("attrs") or {}).get("phase")
        if phase is not None and record.get("end") is not None:
            totals[str(phase)] = totals.get(str(phase), 0.0) + (
                record["end"] - record["start"]
            )
    return totals


def _phase_table(totals: Dict[str, float], title: str) -> str:
    known = [p for p in PHASE_ORDER if p in totals]
    extra = sorted(p for p in totals if p not in PHASE_ORDER)
    rows = [(p, totals[p]) for p in known + extra]
    if not rows:
        return f"{title}\n(no phase-tagged spans)"
    name_width = max(len("phase"), max(len(name) for name, _ in rows))
    lines = [
        title,
        f"{'phase'.ljust(name_width)}  {'seconds':>10}",
        f"{'-' * name_width}  {'-' * 10}",
    ]
    for name, seconds in rows:
        lines.append(f"{name.ljust(name_width)}  {seconds:10.1f}")
    lines.append(f"{'-' * name_width}  {'-' * 10}")
    lines.append(
        f"{'total'.ljust(name_width)}  {sum(t for _, t in rows):10.1f}"
    )
    return "\n".join(lines)


def phase_summary_records(
    records: List[Dict[str, Any]], title: str = "per-phase summary"
) -> str:
    """ASCII phase table from span dicts (exported JSONL records)."""
    return _phase_table(phase_totals_records(records), title)


def phase_totals(tracer: Tracer) -> Dict[str, float]:
    """Summed durations of finished spans grouped by their ``phase`` attr.

    Only spans explicitly tagged with a ``phase`` attribute contribute, so
    nested untagged detail spans (individual transfers under a scatter,
    say) are never double-counted.
    """
    totals: Dict[str, float] = {}
    for span in tracer.finished_spans():
        phase = span.attrs.get("phase")
        if phase is not None:
            totals[str(phase)] = totals.get(str(phase), 0.0) + span.duration
    return totals


def phase_summary(tracer: Tracer, title: str = "per-phase summary") -> str:
    """ASCII table of phase totals, in the paper's phase order."""
    return _phase_table(phase_totals(tracer), title)
