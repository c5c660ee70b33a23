"""Metrics layer: counters, gauges, histograms, registry, exposition."""

import math
import random
from bisect import bisect_left

import pytest

from repro.obs import NULL_METRIC, NULL_REGISTRY, Observability
from repro.obs.dashboard import exact_quantile
from repro.obs.exporters import metrics_to_prometheus
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    exponential_buckets,
    quantile_from_cumulative,
)


def test_exponential_buckets_ladder():
    buckets = exponential_buckets(0.5, 2.0, 4)
    assert buckets == (0.5, 1.0, 2.0, 4.0)
    assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(0.005)
    assert len(DEFAULT_LATENCY_BUCKETS) == 16


@pytest.mark.parametrize(
    "kwargs",
    [
        {"start": 0.0, "factor": 2.0, "count": 4},
        {"start": -1.0, "factor": 2.0, "count": 4},
        {"start": 1.0, "factor": 1.0, "count": 4},
        {"start": 1.0, "factor": 2.0, "count": 0},
    ],
)
def test_exponential_buckets_validation(kwargs):
    with pytest.raises(MetricError):
        exponential_buckets(**kwargs)


@pytest.mark.parametrize("name", ["", "9lives", "has space", "semi;colon", "dash-ed", "new\nline"])
def test_invalid_metric_names(name):
    with pytest.raises(MetricError):
        Counter(name)


def test_counter_series_and_total():
    counter = Counter("events_total", "events processed")
    counter.inc()
    counter.inc(4, engine="e1")
    counter.inc(2, engine="e1")
    counter.inc(3, engine="e2")
    assert counter.value() == 1.0
    assert counter.value(engine="e1") == 6.0
    assert counter.value(engine="e2") == 3.0
    assert counter.value(engine="missing") == 0.0
    assert counter.total() == 10.0
    # Label values are stringified, so 1 and "1" are the same series.
    counter.inc(1, engine=1)
    assert counter.value(engine="1") == 1.0


def test_counter_rejects_decrease():
    counter = Counter("c_total")
    with pytest.raises(MetricError):
        counter.inc(-1)


def test_gauge_up_and_down():
    gauge = Gauge("queue_depth")
    gauge.set(5, site="slac")
    gauge.inc(2, site="slac")
    gauge.dec(4, site="slac")
    assert gauge.value(site="slac") == 3.0
    assert gauge.value() == 0.0
    gauge.inc(-1.5)
    assert gauge.value() == -1.5


def test_histogram_bucket_boundaries():
    hist = Histogram("lat_seconds", buckets=(1.0, 2.0, 4.0))
    # A value equal to a bound belongs to that bucket (Prometheus ``le``).
    hist.observe(1.0)
    hist.observe(2.0)
    hist.observe(0.1)
    hist.observe(3.0)
    hist.observe(100.0)  # past the last bound: +Inf
    cumulative = hist.cumulative_counts()
    assert cumulative == [(1.0, 2), (2.0, 3), (4.0, 4), (float("inf"), 5)]
    assert hist.count() == 5
    assert hist.total() == pytest.approx(106.1)
    assert hist.mean() == pytest.approx(106.1 / 5)


def test_histogram_labeled_series_are_independent():
    hist = Histogram("x_seconds", buckets=(1.0,))
    hist.observe(0.5, phase="a")
    hist.observe(2.0, phase="b")
    assert hist.count(phase="a") == 1
    assert hist.count(phase="b") == 1
    assert hist.count() == 0
    assert hist.mean(phase="missing") == 0.0
    assert hist.cumulative_counts(phase="missing") == [(1.0, 0), (float("inf"), 0)]


def test_histogram_unlabeled_series_appears_on_first_observe():
    hist = Histogram("y_seconds", buckets=(1.0,))
    hist.observe(0.5, phase="a")
    assert hist.labels_seen() == [(("phase", "a"),)]
    for value in (0.5, 2.0, 3.0):
        hist.observe(value)
    hist.observe(0.25, phase="a")
    assert hist.labels_seen() == [(), (("phase", "a"),)]
    assert hist.cumulative_counts() == [(1.0, 1), (float("inf"), 3)]
    assert hist.total() == 5.5 and hist.count(phase="a") == 2


@pytest.mark.parametrize("buckets", [(), (2.0, 1.0), (1.0, 1.0)])
def test_histogram_bucket_validation(buckets):
    with pytest.raises(MetricError):
        Histogram("h_seconds", buckets=buckets)


def test_registry_get_or_create_is_idempotent():
    registry = MetricsRegistry()
    a = registry.counter("calls_total", "calls")
    b = registry.counter("calls_total")
    assert a is b
    hist = registry.histogram("lat_seconds", buckets=(1.0, 2.0))
    assert registry.histogram("lat_seconds", buckets=(1.0, 2.0)) is hist
    assert registry.histogram("lat_seconds") is hist  # None buckets: reuse
    assert registry.get("calls_total") is a
    assert registry.get("absent") is None
    assert [m.name for m in registry.metrics] == ["calls_total", "lat_seconds"]


def test_registry_rejects_type_and_bucket_mismatch():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(MetricError):
        registry.gauge("thing")
    registry.histogram("h_seconds", buckets=(1.0, 2.0))
    with pytest.raises(MetricError):
        registry.histogram("h_seconds", buckets=(1.0, 4.0))


def test_prometheus_exposition():
    registry = MetricsRegistry()
    registry.counter("jobs_total", "jobs run").inc(3, site="slac")
    registry.gauge("engines_live").set(16)
    hist = registry.histogram("wait_seconds", "queue wait", buckets=(1.0, 10.0))
    hist.observe(0.5)
    hist.observe(30.0)
    text = metrics_to_prometheus(registry)
    assert "# HELP jobs_total jobs run" in text
    assert "# TYPE jobs_total counter" in text
    assert 'jobs_total{site="slac"} 3' in text
    assert "# TYPE engines_live gauge" in text
    assert "# TYPE wait_seconds histogram" in text
    assert 'wait_seconds_bucket{le="1"} 1' in text
    assert 'wait_seconds_bucket{le="+Inf"} 2' in text
    assert "wait_seconds_sum 30.5" in text
    assert "wait_seconds_count 2" in text


def test_null_registry_is_inert():
    assert NULL_REGISTRY.counter("anything") is NULL_METRIC
    assert NULL_REGISTRY.gauge("anything") is NULL_METRIC
    assert NULL_REGISTRY.histogram("anything", buckets=(1.0,)) is NULL_METRIC
    assert NULL_REGISTRY.get("anything") is None
    assert NULL_REGISTRY.metrics == []
    NULL_METRIC.inc(5, a="b")
    NULL_METRIC.observe(1.0)
    NULL_METRIC.set(2.0)
    assert NULL_METRIC.value() == 0.0
    assert NULL_METRIC.count() == 0
    assert NULL_METRIC.cumulative_counts() == []


def test_disabled_observability_uses_null_registry():
    obs = Observability(enabled=False)
    assert obs.metrics is NULL_REGISTRY
    assert not obs.metrics.enabled


def test_enabled_observability_requires_env():
    with pytest.raises(ValueError):
        Observability(env=None, enabled=True)


def test_histogram_quantile_property_vs_exact_quantile():
    """Bucketed estimates land in the same bucket as the exact quantile."""
    buckets = tuple(0.005 * 2.0 ** i for i in range(16))
    rng = random.Random(20060815)
    for trial in range(20):
        histogram = Histogram("probe_seconds", buckets=buckets)
        values = []
        for _ in range(rng.randrange(5, 400)):
            value = rng.choice(
                [rng.uniform(0.001, 0.1), rng.expovariate(1.0 / 2.0)]
            )
            histogram.observe(value)
            values.append(value)
        values.sort()
        for q in (0.25, 0.5, 0.9, 0.99, 1.0):
            exact = exact_quantile(values, q)
            estimate = histogram.quantile(q)
            # The estimate's error is bounded by the bucket width: both
            # land in the same bucket up to rank-convention differences
            # at the bucket edge.
            assert abs(
                bisect_left(buckets, estimate) - bisect_left(buckets, exact)
            ) <= 1, (trial, q, exact, estimate)
            # And the estimate never exceeds the largest finite bound.
            assert estimate <= buckets[-1]


def test_quantile_from_cumulative_edges():
    assert math.isnan(quantile_from_cumulative([], 0.5))
    assert math.isnan(
        quantile_from_cumulative([(1.0, 0), (float("inf"), 0)], 0.5)
    )
    with pytest.raises(MetricError):
        quantile_from_cumulative([(1.0, 1)], 1.5)
    # All mass in +Inf: degrade to the highest finite bound.
    pairs = [(1.0, 0), (2.0, 0), (float("inf"), 4)]
    assert quantile_from_cumulative(pairs, 0.9) == 2.0
    # Interpolation from zero inside the first finite bucket.
    pairs = [(2.0, 4), (float("inf"), 4)]
    assert quantile_from_cumulative(pairs, 0.5) == pytest.approx(1.0)
