"""The profiler: an exact fold of the finished trace into span stacks.

:func:`fold_records` turns a run's finished spans into weights in the
collapsed "flame graph" format (``frame;frame;frame weight``), on the
simulated clock and with no sampling error:

* **phase stacks** (``phase;subspan;detail``) — every phase-tagged span
  is swept boundary-by-boundary; each elementary time slice goes to the
  deepest descendant span active during it (the span's path below the
  phase span becomes the stack), and time no descendant covers is the
  phase's self time.  Per phase, the weights are anchored so they **sum
  exactly to the phase total** that
  :func:`repro.obs.exporters.phase_totals` (and therefore
  ``GridBreakdown``) reports — the profile and the paper tables can
  never disagree;
* **chain stacks** (``root;child;span``) — a span with no phase-tagged
  span on its root chain weighs the time it is open with none of its
  children open, keyed by that root chain.  Concurrent spans each count
  (sixteen engines running for 100 s weigh 1 600 engine-seconds), so the
  engines' compute shows up beside the staging phases.

``python -m repro.obs record`` writes the fold of its run as
``profile.jsonl`` (one object per line, the export path of traces and
events); ``python -m repro.obs profile`` and the dashboard render it.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

from repro.obs.trace import Tracer


FrameWeights = Dict[str, float]


def _clip(
    start: float, end: float, lo: float, hi: float
) -> Optional[tuple]:
    clipped_start = max(start, lo)
    clipped_end = min(end, hi)
    if clipped_end <= clipped_start:
        return None
    return (clipped_start, clipped_end)


def _uncovered(record: Dict[str, Any], kids: List[Dict[str, Any]]) -> float:
    """Time *record* is open while none of *kids* is: the gaps between
    the children's intervals, clipped to the span."""
    end = record["end"]
    gaps, reach = 0.0, record["start"]
    for lo, hi in sorted((kid["start"], kid["end"]) for kid in kids):
        if reach >= end:
            break
        if lo > reach:
            gaps += min(lo, end) - reach
        reach = max(reach, hi)
    return gaps + max(end - reach, 0.0)


def fold_records(records: List[Dict[str, Any]]) -> FrameWeights:
    """Exact folded stacks from span dicts (see module docstring).

    Open spans (no ``end``) are left out.  Anchoring guarantees, per
    phase::

        math.fsum(w for stack, w in weights.items()
                  if stack == phase or stack.startswith(phase + ";"))
        == sum of that phase's root durations
    """
    finished = [r for r in records if r.get("end") is not None]
    children: Dict[str, List[Dict[str, Any]]] = {}
    for record in finished:
        parent = record.get("parent_id")
        if parent:
            children.setdefault(parent, []).append(record)

    weights: FrameWeights = {}

    # Chain stacks: spans outside every phase-tagged subtree.
    by_id = {r["span_id"]: r for r in records}
    for record in finished:
        names: List[str] = []
        node: Optional[Dict[str, Any]] = record
        while node is not None:
            if (node.get("attrs") or {}).get("phase") is not None:
                break
            names.append(node["name"])
            node = by_id.get(node.get("parent_id"))
        else:  # no phase-tagged span on the root chain
            self_time = _uncovered(record, children.get(record["span_id"], []))
            if self_time > 0:
                key = ";".join(reversed(names))
                weights[key] = weights.get(key, 0.0) + self_time

    # Phase stacks, anchored to the phase totals.
    phase_targets: Dict[str, float] = {}

    for root in finished:
        phase = (root.get("attrs") or {}).get("phase")
        if phase is None:
            continue
        phase = str(phase)
        lo, hi = root["start"], root["end"]
        phase_targets[phase] = phase_targets.get(phase, 0.0) + (hi - lo)
        weights.setdefault(phase, 0.0)
        if hi <= lo:
            continue

        # Depth-first collection of descendants, remembering each one's
        # stack path (names below the root) and depth.
        entries = []  # (clipped_start, clipped_end, depth, seq, path)
        stack = [(root, 0, ())]
        seq = 0
        while stack:
            node, depth, path = stack.pop()
            for child in children.get(node["span_id"], ()):  # start order
                interval = _clip(child["start"], child["end"], lo, hi)
                child_path = path + (child["name"],)
                if interval is not None:
                    seq += 1
                    entries.append(
                        (interval[0], interval[1], depth + 1, seq, child_path)
                    )
                stack.append((child, depth + 1, child_path))

        if not entries:
            weights[phase] += hi - lo
            continue

        boundaries = sorted(
            {lo, hi}
            | {e[0] for e in entries}
            | {e[1] for e in entries}
        )
        for left, right in zip(boundaries, boundaries[1:]):
            active = [
                e for e in entries if e[0] <= left and e[1] >= right
            ]
            if not active:
                key = phase  # self time: no descendant covers this slice
            else:
                # Deepest active span wins the slice; ties go to the most
                # recently started (largest seq) — the innermost frame.
                _, _, _, _, path = max(
                    active, key=lambda e: (e[2], e[3])
                )
                key = ";".join((phase,) + path)
            weights[key] = weights.get(key, 0.0) + (right - left)

    # Anchor: adjust each phase's self-time entry until the folded sum is
    # bit-equal to the phase total (float addition of slice lengths can
    # round away from end-start; fsum is order-independent, so nudging one
    # entry converges in a step or two).
    for phase, target in phase_targets.items():
        keys = [
            k for k in weights if k == phase or k.startswith(phase + ";")
        ]
        for _ in range(8):
            total = math.fsum(weights[k] for k in keys)
            if total == target:
                break
            weights[phase] += target - total
    return weights


def fold_tracer(tracer: Tracer) -> FrameWeights:
    """Exact folded stacks of a live tracer's finished spans."""
    from repro.obs.exporters import span_to_dict

    return fold_records(
        [span_to_dict(span) for span in tracer.finished_spans()]
    )


# -- export / rendering ----------------------------------------------------

def profile_to_jsonl(weights: FrameWeights) -> str:
    """One ``{"stack": ..., "weight": ...}`` object per line, sorted."""
    return "\n".join(
        json.dumps({"stack": stack, "weight": weights[stack]},
                   sort_keys=True)
        for stack in sorted(weights)
    )


def profile_from_jsonl(text: str) -> FrameWeights:
    """Parse a profile JSONL dump back into folded weights."""
    weights: FrameWeights = {}
    for line in text.splitlines():
        line = line.strip()
        if line:
            record = json.loads(line)
            weights[str(record["stack"])] = float(record["weight"])
    return weights


def render_profile(
    weights: FrameWeights, width: int = 40, limit: Optional[int] = None
) -> str:
    """ASCII flame-table: heaviest stacks first with proportional bars."""
    if not weights:
        return "(no profile samples)"
    rows = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    if limit is not None:
        rows = rows[:limit]
    total = math.fsum(w for _, w in weights.items())
    heaviest = rows[0][1] if rows else 0.0
    name_width = max(len("stack"), max(len(s) for s, _ in rows))
    lines = [
        f"{'stack'.ljust(name_width)}  {'seconds':>10}  {'share':>6}",
    ]
    for stack, weight in rows:
        share = weight / total if total else 0.0
        bar = "#" * max(
            1 if weight > 0 else 0,
            int(round(width * (weight / heaviest))) if heaviest else 0,
        )
        lines.append(
            f"{stack.ljust(name_width)}  {weight:10.2f}  {share:6.1%}  {bar}"
        )
    return "\n".join(lines)
