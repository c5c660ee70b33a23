"""Timeline tracer: record and render phase spans on the simulated clock.

Experiments and examples use this to show *where* the session time goes —
an ASCII Gantt of the Fig. 2 pipeline (auth, engine start, fetch, split,
scatter, code, analysis) that makes overlap (or its absence) visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim import Environment


@dataclass(frozen=True)
class Span:
    """A named closed interval on the simulated clock."""

    name: str
    start: float
    end: float
    lane: str = ""

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start


class Timeline:
    """Collects spans against an environment's clock.

    A simulation process brackets its ``yield``\\ s with the pair::

        timeline.begin("split")
        ...
        timeline.end("split")

    and :meth:`record` adds a span measured elsewhere.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.spans: List[Span] = []
        self._open: Dict[str, float] = {}

    def begin(self, name: str, lane: str = "") -> None:
        """Open a span; nested reuse of the same name is rejected."""
        key = f"{lane}:{name}"
        if key in self._open:
            raise ValueError(f"span {name!r} already open")
        self._open[key] = self.env.now

    def end(self, name: str, lane: str = "") -> Span:
        """Close a span and record it."""
        key = f"{lane}:{name}"
        try:
            start = self._open.pop(key)
        except KeyError:
            raise ValueError(f"span {name!r} was never opened") from None
        span = Span(name=name, start=start, end=self.env.now, lane=lane)
        self.spans.append(span)
        return span

    def record(self, name: str, start: float, end: float, lane: str = "") -> None:
        """Add a pre-measured span."""
        if end < start:
            raise ValueError("end must be >= start")
        self.spans.append(Span(name, start, end, lane))

    def render(self, width: int = 64) -> str:
        """ASCII Gantt: one row per span, bars scaled to the full extent."""
        if not self.spans:
            return "(empty timeline)"
        t0 = min(s.start for s in self.spans)
        t1 = max(s.end for s in self.spans)
        extent = max(t1 - t0, 1e-12)
        label_width = max(len(s.name) for s in self.spans) + 2
        lines = [
            f"timeline: {t0:.1f} .. {t1:.1f} s "
            f"(1 char = {extent / width:.2f} s)"
        ]
        for span in sorted(self.spans, key=lambda s: (s.start, s.name)):
            lead = int((span.start - t0) / extent * width)
            bar = max(1, int(round(span.duration / extent * width)))
            bar = min(bar, width - lead)
            lines.append(
                f"{span.name.ljust(label_width)}"
                f"|{' ' * lead}{'#' * bar}{' ' * (width - lead - bar)}|"
                f" {span.duration:8.1f} s"
            )
        return "\n".join(lines)
