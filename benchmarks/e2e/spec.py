"""Every metric the end-to-end benchmark reports, declared once.

``BENCHMARK.json`` at the repo root carries the subset of these fields the
driver's contract allows (name, unit, direction, bound); the clock and
the definition live here and in the README.  ``test_bench_e2e.py``
checks the two stay in step.

Clocks
------
``sim``
    Simulated seconds of the modelled grid (what the physicist waits).
    Unit ``sim_s``.  Bit-exact for one (commit, workload, seed).
``host``
    What running the simulator costs this machine: CPU seconds of the
    single-threaded benchmark process (``time.process_time``), which on a
    quiet machine equals wall time -- the program never blocks -- and is
    immune to time-sharing.  Units ``s``, ``1/s``, ``MB``.  Noisy; every
    host number is a median.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    clock: str  # "sim", "host" or "-" (a count / share)
    better: str  # "lower" or "higher"
    bound: Optional[float]  # end-to-end only: allowed worsening, share of median
    definition: str


WORKLOADS: Dict[str, str] = {
    "fed_open_loop": (
        "open-loop Poisson sessions over a 2-site federation: broker, admission "
        "queueing, cold-to-warm staging, SE-to-SE migration, tiered merge and polls all at once"
    ),
    "poll_storm": (
        "reads far outnumber writes: 4 sessions x 16 engines with many extra pollers each, "
        "so kernel, envelope, container and merge poll path dominate"
    ),
    "paper_sweep": (
        "the paper's own closed-loop experiment (Table 2 row + X,N lattice) at full event "
        "density: engine compute and dataset generation dominate, services almost idle"
    ),
    "chaos_recovery": (
        "fed_open_loop topology under a seeded fault plan (worker crash and slow-down, leaf "
        "combiner crash, site partition): re-dispatch, resync and failover under concurrent sessions"
    ),
}

# Bounds: the contract requires one bound per metric that holds on every
# workload *across seeds*, about three times the widest quartile spread
# seen over ten seeds (README.md has the table).  So a sim-clock bound is
# set by how far the metric moves when the arrival schedule is redrawn,
# not by its same-seed repeatability, which is exact: compare.py
# tightens sim-clock metrics to equality when both inputs used one seed.
# Host-clock bounds are as wide as the contract allows because the
# reference box drifts by tens of percent for minutes at a time.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "host", "lower", 0.25,
           "CPU seconds (user + sys) of a fresh interpreter that imports everything and builds the "
           "workload up to its first env.step() (site build, dataset registration, schedule draw; "
           "oracle excluded); median of 5 child processes"),
    Metric("session_sim_s.p50", "sim_s", "sim", "lower", 0.10,
           "arrival-due time -> final complete merged tree returned to the client, "
           "completed sessions, median"),
    Metric("session_sim_s.mean", "sim_s", "sim", "lower", 0.20,
           "same, mean: carries the tail (cold stages, migrations, admission waits, failovers) "
           "without the seed-to-seed jumpiness of a p90 over ~100 sessions, which is per-layer"),
    Metric("first_result_sim_s.p50", "sim_s", "sim", "lower", 0.10,
           "run issued -> first poll showing events_processed > 0 (the paper's interactivity "
           "claim), median"),
    Metric("first_result_sim_s.p90", "sim_s", "sim", "lower", 0.10,
           "same, 90th percentile"),
    Metric("poll_sim_s.mean", "sim_s", "sim", "lower", 0.10,
           "one client poll() round trip, all pollers including viewers, mean "
           "(the median is a sum of model constants and cannot move)"),
    Metric("makespan_sim_s", "sim_s", "sim", "lower", 0.10,
           "first due arrival -> last session closed or failed (closed loop: sum over sessions)"),
    Metric("host_s_per_session", "s", "host", "lower", 0.25,
           "CPU seconds of the timed region (first env.step() -> last session closed) / sessions "
           "attempted; median over repetitions"),
    Metric("kernel_events_per_host_s", "1/s", "host", "higher", 0.25,
           "env.step() calls / timed region; median over repetitions"),
    Metric("physics_events_per_host_s", "1/s", "host", "higher", 0.25,
           "physics events of completed sessions / timed region; median over repetitions"),
    Metric("peak_rss_mb", "MB", "host", "lower", 0.10,
           "ru_maxrss of the benchmark process after the untraced repetitions"),
]


def _m(name: str, unit: str, clock: str, better: str, definition: str) -> Metric:
    return Metric(name, unit, clock, better, None, definition)


_HOST = "host self time (span duration minus child spans) summed over "

# One traced repetition produces all of these.  ``moves`` / ``on`` for
# each group is the interaction table in README.md.
PER_LAYER: List[Metric] = [
    # sim kernel
    _m("sim.events", "count", "-", "lower", "env.step() calls in the traced repetition"),
    _m("sim.host_self_s", "s", "host", "lower", "host time in the step loop outside every span"),
    _m("sim.host_us_per_event", "us", "host", "lower", "sim.host_self_s / sim.events"),
    _m("sim.processes_started", "count", "-", "lower", "Environment.process() calls"),
    # envelope + container
    _m("envelope.calls", "count", "-", "lower", "ServiceContainer.call invocations"),
    _m("envelope.host_self_s", "s", "host", "lower", _HOST + "services/envelope.py code"),
    _m("envelope.sim_latency_s", "sim_s", "sim", "lower", "median sim duration of one container call"),
    _m("container.queue_wait_sim_s.p99", "sim_s", "sim", "lower",
       "p99 sim wait for a dispatch slot (queueing + dispatch overhead)"),
    _m("container.rejected", "count", "-", "lower", "requests refused by a full service queue"),
    # merge: poll side
    _m("merge.polls", "count", "-", "lower", "AIDAManagerService.merged calls"),
    _m("merge.poll_host_self_s", "s", "host", "lower", _HOST + "merged() and the merge process it starts"),
    _m("merge.merges_run", "count", "-", "lower", "leader merges actually folded (aida.merge_log)"),
    _m("merge.coalesced_share", "share", "-", "higher", "1 - merges_run / polls"),
    _m("merge.poll_sim_s.p50", "sim_s", "sim", "lower", "median sim duration of merged()"),
    # merge: publish side
    _m("merge.submits", "count", "-", "lower", "submit_snapshot calls"),
    _m("merge.submit_host_self_s", "s", "host", "lower", _HOST + "submit_snapshot (deepcopy, bookkeeping)"),
    _m("merge.ingest_host_self_s", "s", "host", "lower", _HOST + "MergeTree.ingest"),
    _m("merge.refolds", "count", "-", "lower", "MergeTree.refold calls"),
    _m("merge.resyncs", "count", "-", "lower", "engines told to resend a full keyframe: 'resync' submit replies + resync_engines directives"),
    # aida codec + client decode
    _m("aida.encode_host_self_s", "s", "host", "lower", _HOST + "ObjectTree.to_dict"),
    _m("aida.decode_host_self_s", "s", "host", "lower", _HOST + "ObjectTree.from_dict on the server side"),
    _m("aida.payload_nbytes_host_self_s", "s", "host", "lower", _HOST + "codec.payload_nbytes"),
    _m("aida.reply_bytes_per_poll", "B", "-", "lower", "payload_nbytes of the final merged reply, mean over sessions"),
    _m("aida.snapshot_bytes_per_publish", "B", "-", "lower", "mean payload_nbytes of published snapshots"),
    _m("client.poll_decode_host_self_s", "s", "host", "lower", _HOST + "ObjectTree.from_dict under a client poll"),
    # client-side tails: exact for one (commit, seed), too seed-sensitive for a cross-seed bound
    _m("client.session_sim_s.p90", "sim_s", "sim", "lower",
       "p90 of arrival-due -> final tree (10 samples beyond it only where >= 100 sessions)"),
    _m("client.poll_sim_s.p50", "sim_s", "sim", "lower", "median poll round trip (a sum of model constants)"),
    _m("client.poll_sim_s.p99", "sim_s", "sim", "lower",
       "p99 poll round trip (10 samples beyond it where >= 1000 polls); responds to poll load"),
    # engine
    _m("engine.chunks", "count", "-", "lower", "AnalysisEngine.process_chunk calls that processed events"),
    _m("engine.physics_events", "count", "-", "lower", "events processed by all engines (incl. redone work)"),
    _m("engine.process_host_self_s", "s", "host", "lower", _HOST + "process_chunk (the analysis numpy)"),
    _m("engine.snapshot_host_self_s", "s", "host", "lower", _HOST + "take_snapshot"),
    _m("engine.compile_host_self_s", "s", "host", "lower", _HOST + "CodeBundle.instantiate (sandbox exec)"),
    _m("engine.analysis_sim_s.p50", "sim_s", "sim", "lower", "median run-issued -> final tree, per session"),
    # dataset
    _m("dataset.generate_host_self_s", "s", "host", "lower", _HOST + "ILCEventGenerator.generate"),
    _m("dataset.generated_events", "count", "-", "lower", "events synthesised by the generator"),
    _m("dataset.concat_host_self_s", "s", "host", "lower", _HOST + "ContentStore.events_for (slice + concatenate)"),
    # staging, transfer, network
    _m("stage.fetch_sim_s.p50", "sim_s", "sim", "lower", "median StagedDataset.fetch_seconds"),
    _m("stage.split_sim_s.p50", "sim_s", "sim", "lower", "median StagedDataset.split_seconds"),
    _m("stage.move_parts_sim_s.p50", "sim_s", "sim", "lower", "median StagedDataset.move_parts_seconds"),
    _m("stage.code_sim_s.p50", "sim_s", "sim", "lower", "median upload_code duration"),
    _m("stage.warm_share", "share", "-", "higher", "stages that skipped the repository fetch"),
    _m("transfer.flows", "count", "-", "lower", "transfer_file + scatter + third_party calls"),
    _m("transfer.mb_moved", "MB", "-", "lower", "payload of those calls"),
    _m("transfer.retries", "count", "-", "lower", "transfers that ended in an error (each is retried by its caller)"),
    _m("transfer.host_self_s", "s", "host", "lower", _HOST + "grid/transfer.py code"),
    _m("network.rebalances", "count", "-", "lower", "maxmin_allocate calls"),
    _m("network.maxmin_host_self_s", "s", "host", "lower", _HOST + "maxmin_allocate"),
    _m("splitter.host_self_s", "s", "host", "lower", _HOST + "services/splitter.py code"),
    # replica
    _m("replica.plans", "count", "-", "lower", "ReplicaManager.plan_sources calls"),
    _m("replica.local_hits", "count", "-", "higher", "parts already on the target worker"),
    _m("replica.peer_hits", "count", "-", "higher", "parts fetched from a peer worker cache"),
    _m("replica.se_hits", "count", "-", "higher", "parts re-read from SE part files"),
    _m("replica.missing", "count", "-", "lower", "parts that had to be cut cold"),
    _m("replica.host_self_s", "s", "host", "lower", _HOST + "replica/* code"),
    # admission, scheduler, gram, security, session setup
    _m("admission.decisions", "count", "-", "lower", "AdmissionController.acquire calls"),
    _m("admission.wait_sim_s.p50", "sim_s", "sim", "lower", "median sim wait inside acquire"),
    _m("admission.wait_sim_s.p90", "sim_s", "sim", "lower", "p90 sim wait inside acquire"),
    _m("admission.refusals", "count", "-", "lower", "acquire calls that raised RetryAfter"),
    _m("admission.host_self_s", "s", "host", "lower", _HOST + "grid/admission.py code"),
    _m("scheduler.jobs", "count", "-", "lower", "BatchScheduler.submit calls"),
    _m("scheduler.host_self_s", "s", "host", "lower", _HOST + "grid/scheduler.py code"),
    _m("gram.submits", "count", "-", "lower", "GramGatekeeper.submit calls"),
    _m("gram.host_self_s", "s", "host", "lower", _HOST + "grid/gram.py code (the submit itself is instantaneous on the sim clock)"),
    _m("security.handshakes", "count", "-", "lower", "mutual_authenticate calls"),
    _m("security.host_self_s", "s", "host", "lower", _HOST + "grid/security.py code"),
    _m("session.setup_sim_s.p50", "sim_s", "sim", "lower",
       "median connect duration minus migration and admission wait"),
    # broker + federation
    _m("broker.rank_calls", "count", "-", "lower", "SessionBroker.rank calls"),
    _m("broker.host_self_s", "s", "host", "lower", _HOST + "federation/broker.py code"),
    _m("broker.fallbacks", "count", "-", "lower", "candidate sites skipped during connect"),
    _m("federation.migrations", "count", "-", "lower", "whole-dataset SE-to-SE migrations"),
    _m("federation.wan_mb", "MB", "-", "lower", "payload of those migrations"),
    _m("federation.migrate_sim_s.p50", "sim_s", "sim", "lower", "median ensure_resident duration when it moved data"),
    _m("federation.failovers", "count", "-", "lower", "sessions re-brokered to another site"),
    # session service + durability
    _m("session.requests", "count", "-", "lower", "container calls to the control/session services"),
    _m("session.host_self_s", "s", "host", "lower", _HOST + "services/session.py + control.py code"),
    _m("registry.heartbeats", "count", "-", "lower", "WorkerRegistryService.heartbeat calls"),
    _m("heartbeat.host_self_s", "s", "host", "lower", _HOST + "registry heartbeat + resilience/heartbeat.py"),
    _m("journal.records", "count", "-", "lower", "SessionJournal.append calls"),
    _m("journal.host_self_s", "s", "host", "lower", _HOST + "resilience/journal.py code"),
    _m("checkpoint.writes", "count", "-", "lower", "CheckpointStore.write calls"),
    _m("checkpoint.bytes", "B", "-", "lower", "bytes those writes put on the durable store"),
    _m("checkpoint.host_self_s", "s", "host", "lower", _HOST + "resilience/checkpoint.py code"),
    # recovery
    _m("recovery.faults_injected", "count", "-", "lower", "entries in the injectors' logs"),
    _m("recovery.redispatches", "count", "-", "lower", "orphaned parts re-dispatched (session status)"),
    _m("recovery.quarantines", "count", "-", "lower", "engines declared dead (session status)"),
    _m("recovery.detect_to_resume_sim_s.p50", "sim_s", "sim", "lower",
       "median fault detected -> first re-dispatch of that session"),
    _m("recovery.service_recover_sim_s", "sim_s", "sim", "lower", "sim duration of SessionService.recover()"),
    _m("recovery.stuck_sessions", "count", "-", "lower", "sessions alive at the horizon or past their deadline"),
    # fidelity and the trace itself
    _m("fidelity.table2_mean_err_pct", "%", "sim", "lower",
       "mean over N of |ours - paper| / paper for Table 2 staging + analysis; -1 where not measured"),
    _m("trace.spans", "count", "-", "lower", "spans recorded"),
    _m("trace.overhead_pct", "%", "host", "lower", "traced vs untraced host time of the same repetition"),
    _m("trace.unattributed_host_s", "s", "host", "lower", "host self time of code in no known layer"),
]

#: ``--seconds`` the driver passes: at least three repetitions of the
#: slowest workload (~5 s each) on the 2-core reference box.
RUN_SECONDS = 15


def benchmark_json() -> dict:
    """The contract file at the repo root (``python3 benchmarks/e2e/spec.py > BENCHMARK.json``)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_json(), indent=2))
