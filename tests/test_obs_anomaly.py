"""Straggler detection: robust z-scores, hysteresis, and the acceptance run.

The acceptance bar for the telemetry plane: a seeded 16-node run with one
injected slow node flags exactly that node within 3 poll rounds, reports
the p99 poll-latency breach as an SLO event, and turns the flag into
scheduler + heartbeat hints that are withdrawn on session close.
"""

import json

import pytest

from repro.obs import NULL_OBS
from repro.obs.anomaly import (
    NULL_ANOMALY_MONITOR,
    AnomalyMonitor,
    StragglerReport,
    robust_zscores,
)
from repro.obs.events import EventLog


class Clock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


# -- robust z-scores -------------------------------------------------------

def test_robust_zscores_uniform_cohort_is_all_zero():
    assert robust_zscores({}) == {}
    assert robust_zscores({"a": 5.0}) == {"a": 0.0}
    assert robust_zscores({"a": 5.0, "b": 5.0, "c": 5.0}) == {
        "a": 0.0,
        "b": 0.0,
        "c": 0.0,
    }


def test_robust_zscores_flag_single_outlier():
    values = {f"e{i}": 100.0 for i in range(15)}
    values["slow"] = 25.0  # one 4x-slow engine among 16
    scores = robust_zscores(values)
    # MAD is zero (15 identical values), so the meanAD fallback kicks in:
    # meanAD = 75/16, z = 0.6745 * (25 - 100) / (75/16) ≈ -10.8.
    assert scores["slow"] == pytest.approx(-10.792, abs=0.01)
    for engine, score in scores.items():
        if engine != "slow":
            assert score == 0.0


def test_robust_zscores_median_and_mad_path():
    scores = robust_zscores({"a": 1.0, "b": 2.0, "c": 3.0, "d": 100.0})
    # median 2.5, deviations (1.5, 0.5, 0.5, 97.5), MAD 1.0.
    assert scores["d"] == pytest.approx(0.6745 * 97.5)
    assert scores["a"] == pytest.approx(-0.6745 * 1.5)


# -- monitor unit behaviour ------------------------------------------------

def make_monitor(clock=None, **kwargs):
    clock = clock or Clock()
    events = EventLog(clock)
    defaults = {"min_engines": 4, "min_points": 2, "window_s": 60.0}
    defaults.update(kwargs)
    return AnomalyMonitor(clock, events=events, **defaults), events, clock


def feed_progress(monitor, clock, rates, t0=0.0, steps=3, dt=5.0):
    """Feed cumulative progress counters implying ``rates`` events/s."""
    for step in range(steps):
        clock.now = t0 + step * dt
        for engine, rate in rates.items():
            monitor.record_snapshot(
                "s-1", engine, int(rate * (clock.now - t0)) + 1
            )


def test_rates_lags_and_jitter_windows():
    monitor, _, clock = make_monitor()
    feed_progress(monitor, clock, {"e0": 100.0, "e1": 50.0})
    assert monitor.rates("s-1")["e0"] == pytest.approx(100.0)
    assert monitor.rates("s-1")["e1"] == pytest.approx(50.0)
    clock.now = 17.0
    assert monitor.snapshot_lags("s-1") == {"e0": 7.0, "e1": 7.0}
    monitor.record_heartbeat("s-1", "e0", 2.0)
    monitor.record_heartbeat("s-1", "e0", 9.0)
    assert monitor.heartbeat_jitter("s-1") == {"e0": 9.0}


def test_min_engines_and_min_points_gate_detection():
    monitor, events, clock = make_monitor(min_engines=4)
    # Three engines, one pathologically slow: cohort too small to judge.
    feed_progress(monitor, clock, {"e0": 100.0, "e1": 100.0, "e2": 1.0})
    assert monitor.detect("s-1") == []
    assert events.counts() == {}
    # A fourth engine with a single point does not participate either.
    monitor.record_snapshot("s-1", "e3", 1)
    assert monitor.detect("s-1") == []


def test_detect_flags_slow_engine_and_clears_with_hysteresis():
    monitor, events, clock = make_monitor(threshold=3.5)
    rates = {f"e{i}": 100.0 for i in range(15)}
    rates["e15"] = 25.0
    feed_progress(monitor, clock, rates)
    reports = monitor.detect("s-1")
    assert [r.engine_id for r in reports] == ["e15"]
    report = reports[0]
    assert isinstance(report, StragglerReport)
    assert report.signal == "rate"
    assert report.score < -3.5
    assert report.median == pytest.approx(100.0)
    assert events.counts() == {"straggler_detected": 1}
    # Re-detecting while still flagged emits nothing new.
    assert [r.engine_id for r in monitor.detect("s-1")] == ["e15"]
    assert events.counts() == {"straggler_detected": 1}
    assert [r.engine_id for r in monitor.stragglers("s-1")] == ["e15"]
    # Recovery: fresh window where the engine is back with the cohort.
    feed_progress(
        monitor, clock, {engine: 100.0 for engine in rates}, t0=200.0
    )
    assert monitor.detect("s-1") == []
    assert events.counts() == {
        "straggler_detected": 1,
        "straggler_recovered": 1,
    }


def test_forget_engine_and_session_drop_flags():
    monitor, _, clock = make_monitor()
    rates = {f"e{i}": 100.0 for i in range(7)}
    rates["e7"] = 10.0
    feed_progress(monitor, clock, rates)
    assert monitor.detect("s-1")
    monitor.forget_engine("s-1", "e7")
    assert monitor.stragglers("s-1") == []
    assert "e7" not in monitor.rates("s-1")
    monitor.forget_session("s-1")
    monitor.forget_session("s-1")  # idempotent
    assert monitor.rates("s-1") == {}
    assert monitor.detect("s-1") == []


def test_monitor_validation():
    with pytest.raises(ValueError):
        AnomalyMonitor(Clock(), window_s=0.0)
    with pytest.raises(ValueError):
        AnomalyMonitor(Clock(), threshold=0.0)


def test_null_anomaly_monitor_is_inert():
    null = NULL_OBS.anomaly
    assert null is NULL_ANOMALY_MONITOR
    assert null.enabled is False
    assert null.record_snapshot("s", "e", 1) is None
    assert null.record_heartbeat("s", "e", 1.0) is None
    assert null.rates("s") == {}
    assert null.snapshot_lags("s") == {}
    assert null.heartbeat_jitter("s") == {}
    assert null.detect("s") == []
    assert null.stragglers("s") == []
    assert null.forget_engine("s", "e") is None
    assert null.forget_session("s") is None


# -- acceptance: seeded 16-node run with one injected slow node ------------

N_NODES = 16
SLOW_WORKER = "w5"
POLL_INTERVAL = 5.0


@pytest.fixture(scope="module")
def slow_node_run(tmp_path_factory):
    from repro.obs.__main__ import record_run

    out_dir = tmp_path_factory.mktemp("telemetry")
    summary = record_run(
        out_dir,
        nodes=N_NODES,
        size_mb=480.0,
        n_events=80_000,
        slow_worker=SLOW_WORKER,
        slow_factor=4.0,
    )
    events = [
        json.loads(line)
        for line in (out_dir / "events.jsonl").read_text().splitlines()
        if line.strip()
    ]
    return summary, events, out_dir


def test_acceptance_straggler_flagged_within_three_poll_rounds(slow_node_run):
    summary, events, _ = slow_node_run
    assert summary["stragglers_flagged"] >= 1
    injections = [e for e in events if e["kind"] == "fault_injected"]
    assert [e["attrs"]["target"] for e in injections] == [SLOW_WORKER]
    injected_at = injections[0]["time"]
    flags = [e for e in events if e["kind"] == "straggler_detected"]
    # Exactly one engine flagged: the one on the degraded worker.
    assert {e["attrs"]["engine"] for e in flags} == {
        f"{summary['session_id']}-engine-5"
    }
    assert flags[0]["time"] - injected_at <= 3 * POLL_INTERVAL


def test_acceptance_poll_latency_breach_reported_as_event(slow_node_run):
    summary, events, _ = slow_node_run
    assert summary["slo_breaches"] >= 1
    breaches = [e for e in events if e["kind"] == "slo_breach"]
    assert breaches, "expected a poll-latency SLO breach event"
    breach = breaches[0]
    assert breach["attrs"]["policy"] == "poll-latency"
    assert breach["attrs"]["signal"] == "aida.merged"
    assert breach["attrs"]["estimate"] > breach["attrs"]["objective"]
    assert breach["severity"] == "warning"


def test_acceptance_dashboard_shows_flag_and_breach(slow_node_run):
    _, _, out_dir = slow_node_run
    board = (out_dir / "dashboard.txt").read_text()
    assert "straggler" in board
    assert SLOW_WORKER in board
    assert "BREACH" in board
    assert "poll-latency" in board


def test_straggler_hints_reach_scheduler_and_heartbeat_then_clear():
    """Mid-run, a flagged engine is deprioritized and suspected; close undoes both."""
    from repro.analysis import higgs
    from repro.client.client import IPAClient
    from repro.core.site import GridSite, SiteConfig

    site = GridSite(SiteConfig(n_workers=N_NODES, enable_observability=True))
    site.register_dataset(
        "ds-hints",
        "/test/ds-hints",
        size_mb=480.0,
        n_events=80_000,
        metadata={"experiment": "ilc"},
        content={"kind": "ilc", "seed": 0},
    )
    client = IPAClient(site, site.enroll_user("/O=ILC/CN=hints"))
    out = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=N_NODES)
        yield from client.select_dataset("ds-hints")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        while site.aida.snapshot_count(info.session_id) < N_NODES:
            yield site.env.timeout(1.0)
        site.injector.slow_worker(SLOW_WORKER, 4.0)
        deadline = site.env.now + 200.0
        while (
            not site.gram.scheduler.deprioritized
            and site.env.now < deadline
        ):
            yield site.env.timeout(1.0)
        out["deprioritized"] = list(site.gram.scheduler.deprioritized)
        flagged = site.obs.anomaly.stragglers(info.session_id)
        monitor = site.session_service._sessions[info.session_id]["monitor"]
        out["flagged"] = [r.engine_id for r in flagged]
        out["timeouts"] = {
            r.engine_id: monitor.timeout_for(r.engine_id) for r in flagged
        }
        out["base_timeout"] = monitor.config.heartbeat_timeout
        yield from client.wait_for_completion(
            poll_interval=POLL_INTERVAL, timeout=100_000.0
        )
        yield from client.close()
        out["after_close"] = list(site.gram.scheduler.deprioritized)
        out["session_id"] = info.session_id

    site.env.run(until=site.env.process(scenario()))

    assert out["deprioritized"] == [SLOW_WORKER]
    assert out["flagged"] == [f"{out['session_id']}-engine-5"]
    for engine_id, timeout in out["timeouts"].items():
        assert timeout < out["base_timeout"], engine_id
    # close() withdraws the hints and forgets the session's series.
    assert out["after_close"] == []
    assert site.obs.anomaly.stragglers(out["session_id"]) == []


def test_straggler_back_within_the_cohort_mid_run_gets_its_full_timeout_back():
    """A flagged engine that is an outlier no longer is trusted again while
    the session is still running: priority restored, suspicion cleared."""
    from repro.analysis import higgs
    from repro.client.client import IPAClient
    from repro.core.site import GridSite, SiteConfig

    site = GridSite(SiteConfig(n_workers=N_NODES, enable_observability=True))
    site.register_dataset(
        "ds-recovers",
        "/test/ds-recovers",
        size_mb=3840.0,  # ~140 s of analysis per engine: outlasts the 60 s window
        n_events=160_000,
        metadata={"experiment": "ilc"},
        content={"kind": "ilc", "seed": 0},
    )
    client = IPAClient(site, site.enroll_user("/O=ILC/CN=recovers"))
    out = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=N_NODES)
        yield from client.select_dataset("ds-recovers")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        while site.aida.snapshot_count(info.session_id) < N_NODES:
            yield site.env.timeout(1.0)
        scheduler = site.gram.scheduler
        monitor = site.session_service._sessions[info.session_id]["monitor"]
        engine_id = f"{info.session_id}-engine-5"
        site.injector.slow_worker(SLOW_WORKER, 4.0)
        deadline = site.env.now + 200.0
        while not scheduler.deprioritized and site.env.now < deadline:
            yield site.env.timeout(1.0)
        out["suspected_timeout"] = monitor.timeout_for(engine_id)
        site.injector.slow_worker(SLOW_WORKER, 1.0)
        deadline = site.env.now + 400.0
        while scheduler.deprioritized and site.env.now < deadline:
            yield site.env.timeout(1.0)
        out["still_running"] = not (yield from client.poll()).progress.complete
        out["deprioritized"] = list(scheduler.deprioritized)
        out["cleared_timeout"] = monitor.timeout_for(engine_id)
        out["base_timeout"] = monitor.config.heartbeat_timeout
        out["recovered"] = [
            e.attrs["engine"]
            for e in site.obs.events.events(kind="straggler_recovered")
        ]
        out["engine_id"] = engine_id
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))

    assert out["suspected_timeout"] < out["base_timeout"]
    assert out["still_running"]
    assert out["deprioritized"] == []
    assert out["cleared_timeout"] == out["base_timeout"]
    assert out["recovered"] == [out["engine_id"]]
