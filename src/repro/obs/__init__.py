"""Observability layer: the telemetry plane on the simulated clock.

The paper's argument is a timing argument — Tables 1/2 and the cost model
``T_grid = 0.338X + 53 + (62 + 5.3X)/N`` are phase breakdowns of a live
session — so the runtime itself must be able to say where the time goes,
whether the latency objective holds, and which node is dragging.  This
package provides:

* :mod:`repro.obs.metrics` — Counter / Gauge / Histogram with labeled
  series, exponential latency buckets, and bucket-interpolated quantiles;
* :mod:`repro.obs.trace` — a span tracer with correct context propagation
  across interleaved simulation processes;
* :mod:`repro.obs.events` — a bounded structured event log (faults,
  quarantines, evictions, checkpoints, SLO breaches) with subscriptions;
* :mod:`repro.obs.slo` — sliding-window quantile estimators and
  :class:`~repro.obs.slo.SLOPolicy` objectives with error-budget burn;
* :mod:`repro.obs.anomaly` — per-engine rate tracking and robust z-score
  straggler detection feeding scheduler/heartbeat hints;
* :mod:`repro.obs.profile` — folded ``phase;subphase`` stacks, exact (from
  the finished trace) and sampled (live, on the simulated clock);
* :mod:`repro.obs.dashboard` — the ASCII status board, live or from
  exported JSONL;
* :mod:`repro.obs.exporters` — JSON-lines traces, Prometheus text
  exposition, and the per-phase summary that reconciles with
  :mod:`repro.core.timeline` and feeds the paper-table benchmarks.

Everything hangs off one :class:`Observability` handle.  Components take
``obs=None`` and fall back to :data:`NULL_OBS`, whose tracer, registry,
event log, SLO tracker and anomaly monitor are all no-ops —
instrumentation is free when disabled (asserted by
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

from repro.obs.anomaly import (
    NULL_ANOMALY_MONITOR,
    AnomalyMonitor,
    NullAnomalyMonitor,
    StragglerReport,
    robust_zscores,
)
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
from repro.obs.slo import (
    NULL_SLO_TRACKER,
    NullSLOTracker,
    SLOError,
    SLOPolicy,
    SLOTracker,
    SlidingReservoir,
    WindowedHistogram,
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
    event_capacity:
        Bound of the structured event log.
    """

    def __init__(
        self,
        env=None,
        enabled: bool = True,
        event_capacity: int = 2048,
    ) -> None:
        if enabled and env is None:
            raise ValueError("an enabled Observability needs an environment")
        self.enabled = enabled
        self.env = env
        if enabled:
            self.tracer: Tracer = Tracer(env)
            self.metrics: MetricsRegistry = MetricsRegistry()
            self.events: EventLog = EventLog(env, capacity=event_capacity)
            self.slo: SLOTracker = SLOTracker(
                env, events=self.events, metrics=self.metrics
            )
            self.anomaly: AnomalyMonitor = AnomalyMonitor(
                env, events=self.events, metrics=self.metrics
            )
        else:
            self.tracer = NULL_TRACER
            self.metrics = NULL_REGISTRY
            self.events = NULL_EVENT_LOG
            self.slo = NULL_SLO_TRACKER
            self.anomaly = NULL_ANOMALY_MONITOR


#: Shared disabled instance — the default for every instrumented component.
NULL_OBS = Observability(enabled=False)


__all__ = [
    "AnomalyMonitor",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_ANOMALY_MONITOR",
    "NULL_EVENT_LOG",
    "NULL_METRIC",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_SLO_TRACKER",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullAnomalyMonitor",
    "NullEventLog",
    "NullRegistry",
    "NullSLOTracker",
    "NullTracer",
    "Observability",
    "SLOError",
    "SLOPolicy",
    "SLOTracker",
    "SlidingReservoir",
    "Span",
    "StragglerReport",
    "TraceError",
    "Tracer",
    "WindowedHistogram",
    "events_from_jsonl",
    "exponential_buckets",
    "quantile_from_cumulative",
    "robust_zscores",
]
