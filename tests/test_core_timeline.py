"""Unit tests for the timeline tracer."""

import pytest

from repro.core.timeline import Span, Timeline
from repro.sim import Environment


def test_begin_end_records_span():
    env = Environment()
    timeline = Timeline(env)

    def proc():
        timeline.begin("phase")
        yield env.timeout(5.0)
        span = timeline.end("phase")
        assert span.duration == pytest.approx(5.0)

    env.run(until=env.process(proc()))
    assert len(timeline.spans) == 1
    assert timeline.spans[0].name == "phase"


def test_double_begin_rejected():
    timeline = Timeline(Environment())
    timeline.begin("x")
    with pytest.raises(ValueError, match="already open"):
        timeline.begin("x")


def test_end_without_begin_rejected():
    timeline = Timeline(Environment())
    with pytest.raises(ValueError, match="never opened"):
        timeline.end("ghost")


def test_lanes_disambiguate_same_name():
    env = Environment()
    timeline = Timeline(env)
    timeline.begin("work", lane="a")
    timeline.begin("work", lane="b")
    timeline.end("work", lane="a")
    timeline.end("work", lane="b")
    assert [(s.name, s.lane) for s in timeline.spans] == [("work", "a"), ("work", "b")]


def test_record_and_total():
    timeline = Timeline(Environment())
    timeline.record("io", 0.0, 3.0)
    timeline.record("io", 5.0, 7.0)
    timeline.record("cpu", 3.0, 5.0)
    assert [(s.name, s.duration) for s in timeline.spans] == [
        ("io", 3.0),
        ("io", 2.0),
        ("cpu", 2.0),
    ]
    with pytest.raises(ValueError):
        timeline.record("bad", 5.0, 1.0)


def test_render_gantt():
    timeline = Timeline(Environment())
    timeline.record("fetch", 0.0, 60.0)
    timeline.record("split", 60.0, 180.0)
    timeline.record("analysis", 180.0, 260.0)
    text = timeline.render(width=40)
    lines = text.splitlines()
    assert "timeline:" in lines[0]
    assert len(lines) == 4
    # Bars appear in chronological order and are non-empty.
    for line in lines[1:]:
        assert "#" in line
    # The later phase's bar starts further right.
    assert lines[2].index("#") > lines[1].index("#")
    assert lines[3].index("#") > lines[2].index("#")


def test_render_empty():
    assert "(empty" in Timeline(Environment()).render()


def test_span_dataclass():
    span = Span("x", 1.0, 4.0)
    assert span.duration == 3.0
