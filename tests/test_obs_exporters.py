"""Prometheus exposition: escaping, and the exact text each metric kind renders."""

import pytest

from repro.obs.exporters import escape_label_value, metrics_to_prometheus
from repro.obs.metrics import Histogram, MetricsRegistry


@pytest.mark.parametrize(
    "raw,escaped",
    [
        ("plain", "plain"),
        ('say "hi"', 'say \\"hi\\"'),
        ("back\\slash", "back\\\\slash"),
        ("multi\nline", "multi\\nline"),
        ("\\n", "\\\\n"),  # literal backslash-n must not become a newline
        ('"\\\n', '\\"\\\\\\n'),
    ],
)
def test_escape_label_value_round_trips(raw, escaped):
    assert escape_label_value(raw) == escaped


def test_escape_order_keeps_transform_reversible():
    # Escaping the backslash first is what keeps '\\' + 'n' distinct from
    # a newline; the composed transform must stay injective.
    tricky = ["a\\nb", "a\nb", 'a"b', "a\\\"b", "\\", "\n", '"']
    escaped = [escape_label_value(value) for value in tricky]
    assert len(set(escaped)) == len(tricky)


def test_exposition_escapes_label_values_and_help():
    registry = MetricsRegistry()
    registry.counter("jobs_total", 'submitted "jobs"\nper queue').inc(
        3, queue='short\n"batch"\\x'
    )
    assert metrics_to_prometheus(registry).splitlines() == [
        '# HELP jobs_total submitted "jobs"\\nper queue',
        "# TYPE jobs_total counter",
        'jobs_total{queue="short\\n\\"batch\\"\\\\x"} 3',
    ]


def test_histogram_round_trips_with_inf_bucket():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "latency_seconds", "call latency", buckets=(0.1, 1.0)
    )
    histogram.observe(0.05, service="control")
    histogram.observe(0.5, service="control")
    histogram.observe(10.0, service="control")
    assert metrics_to_prometheus(registry).splitlines() == [
        "# HELP latency_seconds call latency",
        "# TYPE latency_seconds histogram",
        'latency_seconds_bucket{service="control",le="0.1"} 1',
        'latency_seconds_bucket{service="control",le="1"} 2',
        'latency_seconds_bucket{service="control",le="+Inf"} 3',
        'latency_seconds_sum{service="control"} 10.55',
        'latency_seconds_count{service="control"} 3',
    ]


def test_exposition_of_unlabeled_series_and_comments():
    registry = MetricsRegistry()
    registry.gauge("up", "1 when scraped").set(1)
    registry.gauge("free_bytes", "").set(2.5)
    # Sorted by name; an empty help string writes no HELP line.
    assert metrics_to_prometheus(registry) == (
        "# TYPE free_bytes gauge\n"
        "free_bytes 2.5\n"
        "# HELP up 1 when scraped\n"
        "# TYPE up gauge\n"
        "up 1\n"
    )
    assert metrics_to_prometheus(MetricsRegistry()) == ""


def test_registry_dump_matches_expected_exposition():
    registry = MetricsRegistry()
    registry.counter("a_total", "a").inc(7, node="w\\1")
    registry.gauge("b_ratio", "b").set(0.25, mode='x"y')
    assert isinstance(
        registry.histogram("c_seconds", "c", buckets=(1.0,)), Histogram
    )
    registry.get("c_seconds").observe(2.0)
    assert metrics_to_prometheus(registry).splitlines() == [
        "# HELP a_total a",
        "# TYPE a_total counter",
        'a_total{node="w\\\\1"} 7',
        "# HELP b_ratio b",
        "# TYPE b_ratio gauge",
        'b_ratio{mode="x\\"y"} 0.25',
        "# HELP c_seconds c",
        "# TYPE c_seconds histogram",
        'c_seconds_bucket{le="1"} 0',
        'c_seconds_bucket{le="+Inf"} 1',
        "c_seconds_sum 2",
        "c_seconds_count 1",
    ]
