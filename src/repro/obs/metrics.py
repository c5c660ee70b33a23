"""Labeled metrics: Counter / Gauge / Histogram plus a registry.

The design follows the Prometheus data model (the de-facto lingua franca
of grid/cluster monitoring): a metric has a name, a help string and a set
of **labeled series**; counters only go up, gauges go both ways, and
histograms count observations into cumulative ``le`` buckets (exponential
bucket ladders suit latencies, whose interesting range spans decades —
RMI polls at 50 ms next to 100 s staging passes).

Everything is plain in-process bookkeeping on the simulated clock's side:
no threads, no wall clock, fully deterministic.  When observability is
disabled the :data:`NULL_REGISTRY` hands out no-op metrics so call sites
pay a single attribute lookup and method call.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple


class MetricError(Exception):
    """Raised on invalid metric names, types, or observations."""


LabelKey = Tuple[Tuple[str, str], ...]

#: A metric name: letters, digits, ``_`` and ``:`` (``\w`` is ``isalnum()`` or ``_``).
_NAME = re.compile(r"[\w:]+")


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set (sorted by label name)."""
    if not labels:  # fast path: most hot series are unlabeled
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` bucket upper bounds: ``start * factor**i``.

    The standard ladder for latency histograms; an implicit ``+Inf``
    bucket is always appended by :class:`Histogram` itself.
    """
    if start <= 0:
        raise MetricError("start must be > 0")
    if factor <= 1:
        raise MetricError("factor must be > 1")
    if count < 1:
        raise MetricError("count must be >= 1")
    return tuple(start * factor ** i for i in range(count))


#: 5 ms .. ~163 s in 16 doubling steps — covers RMI latency through the
#: longest staging phases of the paper's tables.
DEFAULT_LATENCY_BUCKETS = exponential_buckets(0.005, 2.0, 16)


def quantile_from_cumulative(
    pairs: List[Tuple[float, int]], q: float
) -> float:
    """Estimate the *q*-quantile from ``(le, cumulative count)`` pairs.

    Monotone (piecewise-linear) interpolation inside the bucket holding
    the target rank, the same estimate ``histogram_quantile`` computes in
    PromQL: the rank is ``q * total``; observations are assumed uniform
    within a bucket; the first finite bucket interpolates from 0 and the
    ``+Inf`` bucket degrades to the highest finite bound.  Returns ``nan``
    with no observations.  Backs :meth:`Histogram.quantile`.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError("quantile must be in [0, 1]")
    if not pairs:
        return float("nan")
    total = pairs[-1][1]
    if total == 0:
        return float("nan")
    rank = q * total
    previous_bound = 0.0
    previous_cum = 0
    for index, (bound, cumulative) in enumerate(pairs):
        if cumulative >= rank:
            if bound == float("inf"):
                # Past the last finite bound there is no upper edge to
                # interpolate toward; report the highest finite bound
                # (or the rank-holding count when there is none).
                return previous_bound if index > 0 else float("nan")
            in_bucket = cumulative - previous_cum
            if in_bucket <= 0:
                return bound
            fraction = (rank - previous_cum) / in_bucket
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_cum = bound, cumulative
    return previous_bound  # pragma: no cover - +Inf pair is always last


class Metric:
    """Base: one named metric holding labeled series."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME.fullmatch(name):
            raise MetricError(f"invalid metric name {name!r}")
        if name[0].isdigit():
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, object] = {}

    def series(self) -> Dict[LabelKey, object]:
        """All labeled series (label key -> value/state), sorted by key."""
        return dict(sorted(self._series.items()))

    def labels_seen(self) -> List[LabelKey]:
        """Label keys with at least one recorded value."""
        return sorted(self._series)


class Counter(Metric):
    """Monotonically increasing count (events, bytes, retries...)."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add *amount* (>= 0) to the labeled series."""
        if amount < 0:
            raise MetricError("counters can only increase")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0 when never incremented)."""
        return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every labeled series."""
        return float(sum(self._series.values()))


class Gauge(Metric):
    """A value that goes up and down (queue depth, live engines...)."""

    type_name = "gauge"

    def set(self, value: float, **labels: object) -> None:
        """Set the labeled series to *value*."""
        self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add *amount* (may be negative) to the labeled series."""
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        """Subtract *amount* from the labeled series."""
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0 when never set)."""
        return float(self._series.get(_label_key(labels), 0.0))


class _HistogramSeries:
    """Per-label-set histogram state: bucket counts, sum, count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Observation distribution over fixed ``le`` (<=) buckets."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if not bounds:
            raise MetricError("histogram needs at least one bucket")
        if list(bounds) != sorted(bounds):
            raise MetricError("bucket bounds must be sorted ascending")
        if len(set(bounds)) != len(bounds):
            raise MetricError("bucket bounds must be distinct")
        #: Finite upper bounds; an implicit +Inf bucket follows them.
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in bounds)

    #: The unlabeled series, once observed: most hot histograms have no labels.
    _unlabeled: Optional[_HistogramSeries] = None

    def _get(self, labels: Dict[str, object]) -> _HistogramSeries:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets) + 1)
            if not key:
                self._unlabeled = series
        return series

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation (``value <= bound`` lands in a bucket)."""
        series = (not labels and self._unlabeled) or self._get(labels)
        # First bound >= value, i.e. the smallest bucket whose ``le``
        # admits the observation; past the last bound this is +Inf.
        index = bisect_left(self.buckets, value)
        series.counts[index] += 1
        series.sum += value
        series.count += 1

    def count(self, **labels: object) -> int:
        """Total observations in one labeled series."""
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def total(self, **labels: object) -> float:
        """Sum of observed values in one labeled series."""
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def mean(self, **labels: object) -> float:
        """Mean observation (0 when empty)."""
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return 0.0
        return series.sum / series.count

    def quantile(self, q: float, **labels: object) -> float:
        """Estimated *q*-quantile of one labeled series.

        Monotone interpolation over the cumulative bucket counts (see
        :func:`quantile_from_cumulative`); the error is bounded by the
        width of the bucket holding the target rank.  ``nan`` when the
        series has no observations.
        """
        return quantile_from_cumulative(
            self.cumulative_counts(**labels), q
        )

    def cumulative_counts(self, **labels: object) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs, +Inf last."""
        series = self._series.get(_label_key(labels))
        counts = (
            series.counts
            if series is not None
            else [0] * (len(self.buckets) + 1)
        )
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(list(self.buckets) + [float("inf")], counts):
            running += n
            out.append((bound, running))
        return out


class MetricsRegistry:
    """Get-or-create store of named metrics.

    Re-requesting a name returns the existing instance; requesting it as a
    different type (or a histogram with different buckets) is an error —
    mismatched series would silently corrupt dashboards otherwise.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.type_name}"
                )
            if cls is Histogram and kwargs.get("buckets") is not None:
                if tuple(kwargs["buckets"]) != existing.buckets:
                    raise MetricError(
                        f"histogram {name!r} already registered with "
                        f"different buckets"
                    )
            return existing
        metric = cls(name, help, **kwargs) if kwargs else cls(name, help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    @property
    def metrics(self) -> List[Metric]:
        """Registered metrics sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[Metric]:
        """Look up a metric by name (``None`` when absent)."""
        return self._metrics.get(name)


class _NullMetric:
    """Shared no-op stand-in for every metric type when disabled."""

    type_name = "null"
    name = "null"
    help = ""
    buckets: Tuple[float, ...] = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self, **labels: object) -> float:
        return 0.0

    def count(self, **labels: object) -> int:
        return 0

    def mean(self, **labels: object) -> float:
        return 0.0

    def quantile(self, q: float, **labels: object) -> float:
        return 0.0

    def series(self) -> dict:
        return {}

    def cumulative_counts(self, **labels: object) -> list:
        return []


NULL_METRIC = _NullMetric()


class NullRegistry:
    """Registry that hands out :data:`NULL_METRIC` for everything."""

    enabled = False
    metrics: List[Metric] = []

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return NULL_METRIC

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> _NullMetric:
        return NULL_METRIC

    def get(self, name: str) -> None:
        return None


NULL_REGISTRY = NullRegistry()
