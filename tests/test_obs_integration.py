"""End-to-end telemetry: one session -> one coherent trace + sane metrics."""

import pytest

from repro.core.experiment import run_grid_experiment
from repro.obs.exporters import (
    metrics_to_prometheus,
    phase_summary,
    phase_totals,
    render_tree,
)

SIZE_MB = 471.0
NODES = 16
PHASES = ("session_setup", "move_whole", "split", "move_parts", "stage_code", "analysis")

#: Table 2, N = 16 row (seconds) — what the telemetry should reproduce.
TABLE2_N16 = {"move_whole": 63.0, "split": 124.0, "move_parts": 50.0, "analysis": 78.0}


@pytest.fixture(scope="module")
def traced_run():
    return run_grid_experiment(
        SIZE_MB, NODES, events_per_mb=4, collect_tree=False, observability=True
    )


def test_one_session_is_one_trace_tree(traced_run):
    tracer = traced_run.obs.tracer
    roots = tracer.roots()
    assert [root.name for root in roots] == ["session"]
    names = set(tracer.descendant_names(roots[0]))
    # Client tier -> service tier -> grid/engine tier, all in one tree.
    for expected in (
        "call:control.create_session",
        "session.create",
        "gram.submit",
        "stage.fetch",
        "stage.split",
        "stage.move_parts",
        "stage.code",
        "engine.run",
        "ftp.scatter",
        "ftp.transfer",
        "aida.merge",
    ):
        assert expected in names, f"missing {expected} under the session root"
    assert len(tracer.find("engine.run")) == NODES
    open_spans = [span for span in tracer.spans if not span.finished]
    assert open_spans == []


def test_phase_totals_reconcile_with_breakdown(traced_run):
    totals = phase_totals(traced_run.obs.tracer)
    for phase in PHASES:
        assert totals[phase] == pytest.approx(getattr(traced_run, phase), abs=1e-9)
    summary = phase_summary(traced_run.obs.tracer)
    for phase in PHASES:
        assert phase in summary


def test_engine_and_transfer_metrics(traced_run):
    metrics = traced_run.obs.metrics
    n_events = int(SIZE_MB * 4)
    assert metrics.get("engine_events_total").total() == n_events
    per_engine = metrics.get("engine_chunk_seconds")
    assert len(per_engine.labels_seen()) == NODES  # one series per engine
    assert sum(per_engine.count(**dict(key)) for key in per_engine.labels_seen()) >= NODES
    assert metrics.get("service_calls_total").total() > 0
    assert metrics.get("heartbeat_gap_seconds").count() > 0
    assert metrics.get("aida_snapshots_total").total() > 0
    assert metrics.get("aida_merge_seconds").count() > 0


def test_prometheus_dump_and_tree_render(traced_run):
    text = metrics_to_prometheus(traced_run.obs.metrics)
    assert "# TYPE engine_events_total counter" in text
    assert "# TYPE service_call_seconds histogram" in text
    assert 'le="+Inf"' in text
    rendered = render_tree(traced_run.obs.tracer, max_depth=2)
    assert rendered.startswith("session")
    assert "engine.run" in render_tree(traced_run.obs.tracer)


def test_disabled_run_is_identical_and_untelemetered(traced_run):
    baseline = run_grid_experiment(
        SIZE_MB, NODES, events_per_mb=4, collect_tree=False, observability=False
    )
    assert baseline.obs is None
    for phase in PHASES:
        assert getattr(baseline, phase) == getattr(traced_run, phase)


def _straggling_session(observed):
    """12 workers, 8 engines; w5 slows 4x after the first snapshots and
    hangs 40 s later, so recovery re-dispatches its parts mid-run."""
    from repro.analysis import higgs
    from repro.client.client import IPAClient
    from repro.core.site import GridSite, SiteConfig

    site = GridSite(
        SiteConfig(n_workers=12, enable_observability=observed)
    )
    site.register_dataset(
        "ds-onoff",
        "/test/ds-onoff",
        size_mb=480.0,
        n_events=80_000,
        metadata={"experiment": "ilc"},
        content={"kind": "ilc", "seed": 0},
    )
    client = IPAClient(site, site.enroll_user("/O=ILC/CN=onoff"))
    out = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=8)
        yield from client.select_dataset("ds-onoff")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        while site.aida.snapshot_count(info.session_id) < 8:
            yield site.env.timeout(1.0)
        site.injector.slow_worker("w5", 4.0)
        yield site.env.timeout(40.0)
        site.injector.hang_worker("w5")
        result = yield from client.wait_for_completion(timeout=100_000.0)
        session = site.session_service._sessions[info.session_id]
        out["completed_at"] = site.env.now
        out["recoveries"] = [
            (r["engine_id"], type(r["cause"]).__name__, r["detected_at"],
             r["parts"])
            for r in session["recoveries"]
        ]
        out["references"] = {
            ref.engine_id: ref.worker for ref in session["references"]
        }
        out["events_processed"] = result.progress.events_processed
        out["tree"] = result.tree.to_dict()
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    return out


def test_observability_changes_no_decision_of_a_straggling_session():
    """Telemetry is write-only: a session whose engine slows and then
    hangs recovers at the same instant, onto the same workers, into the
    same tree, whether observability is on or off."""
    off = _straggling_session(observed=False)
    on = _straggling_session(observed=True)
    assert off["recoveries"], "the hung engine must be recovered"
    assert off["events_processed"] == 80_000
    for key in ("completed_at", "recoveries", "references",
                "events_processed", "tree"):
        assert on[key] == off[key], key


@pytest.mark.slow
def test_telemetry_reproduces_table2_row(traced_run):
    """Regression: trace-derived phase totals still match the paper table."""
    totals = phase_totals(traced_run.obs.tracer)
    for phase, paper_seconds in TABLE2_N16.items():
        assert totals[phase] == pytest.approx(paper_seconds, rel=0.12), phase


# -- telemetry through faults and recovery ---------------------------------

def _chaos_site(n_workers=8, n_events=8_000, size_mb=96.0):
    from repro.client.client import IPAClient
    from repro.core.site import GridSite, SiteConfig

    site = GridSite(
        SiteConfig(n_workers=n_workers, enable_observability=True)
    )
    site.register_dataset(
        "ds-obs",
        "/test/ds-obs",
        size_mb=size_mb,
        n_events=n_events,
        metadata={"experiment": "ilc"},
        content={"kind": "ilc", "seed": 7},
    )
    return site, IPAClient(site, site.enroll_user("/O=ILC/CN=obs"))


def test_trace_and_events_span_the_recovery_boundary():
    """One tracer carries spans from before the crash and after recovery."""
    from repro.analysis import higgs

    site, client = _chaos_site()
    n = 8

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=n)
        yield from client.select_dataset("ds-obs")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        while site.aida.snapshot_count(info.session_id) < n:
            yield site.env.timeout(1.0)
        site.injector.crash_services()
        yield site.env.timeout(10.0)
        yield site.injector.restart_services()
        yield from client.wait_for_completion(
            poll_interval=5.0, timeout=100_000.0
        )
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))

    counts = site.obs.events.counts()
    assert counts["service_crash"] == 1
    assert counts["service_recovered"] == 1
    assert counts["session_created"] == 1
    assert counts["session_closed"] == 1
    crash = site.obs.events.events(kind="service_crash")[0]
    recovered = site.obs.events.events(kind="service_recovered")[0]
    assert crash.severity == "error"
    assert recovered.time > crash.time
    assert recovered.attrs["sessions"] == 1

    tracer = site.obs.tracer
    names = {span.name for span in tracer.spans}
    assert "service.recover" in names
    # Spans from both sides of the boundary live in the same trace, and
    # the post-recovery merge work is still being recorded.
    assert any(
        span.start < crash.time for span in tracer.find("engine.run")
    )
    assert any(
        span.start > recovered.time for span in tracer.find("aida.merge")
    )
    assert [span for span in tracer.spans if not span.finished] == []


def test_quarantine_and_replica_invalidation_telemetry():
    """A crashed worker leaves a full event/metric audit trail."""
    from repro.analysis import higgs

    site, client = _chaos_site()
    n = 8
    victim = "w2"

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=n)
        yield from client.select_dataset("ds-obs")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        while site.aida.snapshot_count(info.session_id) < n:
            yield site.env.timeout(1.0)
        site.injector.crash_worker(victim)
        yield from client.wait_for_completion(
            poll_interval=5.0, timeout=100_000.0
        )
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))

    counts = site.obs.events.counts()
    assert counts["fault_injected"] == 1
    assert counts["fault_detected"] == 1
    assert counts["engine_quarantined"] == 1
    assert counts["engine_redispatched"] >= 1
    assert counts.get("replica_invalidated", 0) >= 1

    injected = site.obs.events.events(kind="fault_injected")[0]
    assert injected.attrs == {"kind": "crash", "target": victim}
    quarantined = site.obs.events.events(kind="engine_quarantined")[0]
    assert quarantined.attrs["worker"] == victim
    detected = site.obs.events.events(kind="fault_detected")[0]
    assert detected.severity == "error"
    assert detected.attrs["engine"] == quarantined.attrs["engine"]
    for event in site.obs.events.events(kind="replica_invalidated"):
        assert event.attrs["host"] == victim

    metrics = site.obs.metrics
    assert metrics.get("session_quarantines_total").total() == 1
    assert metrics.get("session_redispatches_total").total() >= 1


def test_status_board_renders_mid_run_and_when_disabled():
    from repro.analysis import higgs
    from repro.obs.dashboard import render_board

    site, client = _chaos_site()
    boards = []

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=8)
        yield from client.select_dataset("ds-obs")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        yield site.env.timeout(30.0)  # mid-run, nothing finished yet
        boards.append(
            render_board(
                site.obs,
                session_service=site.session_service,
                session_id=info.session_id,
            )
        )
        yield from client.wait_for_completion(
            poll_interval=5.0, timeout=100_000.0
        )
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    (board,) = boards
    assert "ipa status board" in board
    assert "nodes:" in board
    assert "slo:" in board
    assert "poll-latency" in board
    assert "events (last 8):" in board

    from repro.obs import NULL_OBS

    disabled = render_board(NULL_OBS)
    assert "(observability disabled)" in disabled


def test_null_obs_whole_surface_is_noop():
    """Every telemetry-plane API added this round is free when disabled."""
    from repro.obs import NULL_OBS

    assert NULL_OBS.enabled is False
    # Event log
    assert NULL_OBS.events.emit("fault_detected", severity="error") is None
    assert NULL_OBS.events.counts() == {}
    # Tracer: nothing to fold the latency objective from.
    NULL_OBS.tracer.start("call:aida.merged").finish()
    assert NULL_OBS.tracer.finished_spans() == []
    # And nothing above left state behind on the shared singleton.
    assert NULL_OBS.events.events() == []
    assert not hasattr(NULL_OBS, "slo")
