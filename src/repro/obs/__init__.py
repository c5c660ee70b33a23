"""Observability layer: the telemetry plane on the simulated clock.

The paper's argument is a timing argument — Tables 1/2 and the cost model
``T_grid = 0.338X + 53 + (62 + 5.3X)/N`` are phase breakdowns of a live
session — so the runtime itself must be able to say where the time goes
and whether the latency objective holds.  The plane is write-only: no
product decision reads it, so a session runs the same with it on or
off.  This package provides:

* :mod:`repro.obs.metrics` — Counter / Gauge / Histogram with labeled
  series, exponential latency buckets, and bucket-interpolated quantiles;
* :mod:`repro.obs.trace` — a span tracer with correct context propagation
  across interleaved simulation processes;
* :mod:`repro.obs.events` — a bounded structured event log (faults,
  quarantines, evictions, checkpoints);
* :mod:`repro.obs.profile` — the profiler: an exact fold of the finished
  trace into ``phase;subphase`` stacks (anchored to the phase totals) and
  root-chain stacks for the spans outside every phase;
* :mod:`repro.obs.dashboard` — the ASCII status board, live or from
  exported JSONL, and the poll-latency objective: a read-time fold of
  the finished ``aida.merged`` call spans, so it keeps no state of its
  own;
* :mod:`repro.obs.exporters` — JSON-lines traces, Prometheus text
  exposition, and the per-phase summary that reconciles with
  :mod:`repro.core.timeline` and feeds the paper-table benchmarks.

Everything hangs off one :class:`Observability` handle.  Components take
``obs=None`` and fall back to :data:`NULL_OBS`, whose tracer, registry
and event log are all no-ops — instrumentation is free
when disabled (asserted by
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

from repro.obs.events import (
    EVENT_KINDS,
    Event,
    EventLog,
    NULL_EVENT_LOG,
    NullEventLog,
    events_from_jsonl,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_METRIC,
    NULL_REGISTRY,
    NullRegistry,
    exponential_buckets,
    quantile_from_cumulative,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceError,
    Tracer,
)


class Observability:
    """One handle bundling the whole telemetry plane.

    Parameters
    ----------
    env:
        Simulation environment (spans and windows read its clock).  May
        be ``None`` only when ``enabled=False``.
    enabled:
        With ``False``, every subsystem is the shared no-op singleton.
    """

    def __init__(self, env=None, enabled: bool = True) -> None:
        if enabled and env is None:
            raise ValueError("an enabled Observability needs an environment")
        self.enabled = enabled
        self.env = env
        if enabled:
            self.tracer: Tracer = Tracer(env)
            self.metrics: MetricsRegistry = MetricsRegistry()
            self.events: EventLog = EventLog(env)
        else:
            self.tracer = NULL_TRACER
            self.metrics = NULL_REGISTRY
            self.events = NULL_EVENT_LOG


#: Shared disabled instance — the default for every instrumented component.
NULL_OBS = Observability(enabled=False)


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_EVENT_LOG",
    "NULL_METRIC",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullEventLog",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "Span",
    "TraceError",
    "Tracer",
    "events_from_jsonl",
    "exponential_buckets",
    "quantile_from_cumulative",
]
