"""Per-layer metrics and the two reconciliations, from one traced repetition."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.aida.codec import payload_nbytes
from repro.resilience.checkpoint import CheckpointStore

from harness import Workload, percentile
from spec import PER_LAYER
from tracing import LAYER_OF_PATH, Span, Tracer

FAULT_KINDS = ("crash", "slow", "combiner-crash", "site-partition")
#: Host time of a module that maps to no layer is ``trace.unattributed_host_s``.
KNOWN_LAYERS = {layer for _path, layer in LAYER_OF_PATH}


def _median(values: List[float]) -> float:
    return percentile(values, 50)


def summarise(
    tracer: Tracer, workload: Workload, untraced: Workload
) -> Tuple[Dict[str, float], Dict[str, int], List[str]]:
    """Returns ``(metric values, sample counts, reconciliation problems)``.

    *workload* is the traced repetition, *untraced* the plain repetition
    of the same seed run just before it (for the tracing overhead).
    """
    spans = tracer.spans
    by_id: Dict[int, Span] = {span.id: span for span in spans}
    layer_self = layer_self_times(tracer)
    owner_self: Dict[str, float] = defaultdict(float)
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        owner = span
        if span.name.startswith("proc:"):
            # A process folds into the entry point that started it when
            # both are the same layer (merged() and its merge process).
            parent = by_id.get(span.parent)
            if parent is not None and parent.layer == span.layer and not parent.name.startswith("proc:"):
                owner = parent
        else:
            named[span.name].append(span)
        owner_self[owner.name] += span.self_s

    def sim_durations(name: str, keep=lambda span: True) -> List[float]:
        return [s.sim_end - s.sim_start for s in named[name] if keep(s)]

    def count(name: str, keep=lambda span: True) -> int:
        return sum(1 for s in named[name] if keep(s))

    done = [r for r in workload.sessions if r.failed is None]
    staged = [r.staged for r in done if r.staged is not None]
    fed = workload.federation.stats() if workload.federation is not None else None
    transfers = [s for n in ("transfer.transfer_file", "transfer.scatter", "transfer.third_party")
                 for s in named[n]]
    decode_client = sum(
        s.self_s for s in named["aida.from_dict"]
        if by_id.get(s.parent) is not None and by_id[s.parent].layer in ("client", "federation")
    )
    publishes = [s.tag for s in named["aida.payload_nbytes"] if isinstance(s.tag, int)]
    reply_bytes = [payload_nbytes(r.tree.to_dict()) for r in done]
    chunks = [s.tag for s in named["engine.process_chunk"] if isinstance(s.tag, int) and s.tag > 0]
    polls = count("merge.merged")
    merges_run = sum(len(site.aida.merge_log) for site in workload.sites)
    fault_log = [entry for site in workload.sites for entry in site.injector.log]
    recoveries = [rec for r in workload.sessions for rec in (r.recovery or {}).get("recoveries", [])]
    redispatches = [rec for r in workload.sessions for rec in (r.recovery or {}).get("redispatches", [])]
    resume = []
    for r in workload.sessions:
        info = r.recovery or {}
        for rec in info.get("recoveries", []):
            later = [d["at"] for d in info.get("redispatches", []) if d["at"] >= rec["detected_at"]]
            if later:
                resume.append(min(later) - rec["detected_at"])
    phases, problems = session_phases(tracer, workload, by_id)
    unattributed = sum(v for layer, v in layer_self.items() if layer not in KNOWN_LAYERS)
    store_appends = named["journal.store_append"]

    m: Dict[str, float] = {
        "sim.events": workload.steps,
        "sim.host_self_s": layer_self["sim"],
        "sim.host_us_per_event": layer_self["sim"] / max(1, workload.steps) * 1e6,
        "sim.processes_started": tracer.processes_started,
        "envelope.calls": count("envelope.call"),
        "envelope.host_self_s": layer_self["envelope"],
        "envelope.sim_latency_s": _median(sim_durations("envelope.call")),
        "container.queue_wait_sim_s.p99": percentile(sim_durations("container.admit"), 99),
        "container.rejected": sum(
            state["rejected"] for site in workload.sites for state in site.container.stats().values()
        ),
        "merge.polls": polls,
        "merge.poll_host_self_s": owner_self["merge.merged"],
        "merge.merges_run": merges_run,
        "merge.coalesced_share": 1.0 - merges_run / polls if polls else 0.0,
        "merge.poll_sim_s.p50": _median(sim_durations("merge.merged")),
        "merge.submits": count("merge.submit_snapshot"),
        "merge.submit_host_self_s": owner_self["merge.submit_snapshot"],
        "merge.ingest_host_self_s": owner_self["merge.ingest"],
        "merge.refolds": count("merge.refold"),
        "merge.resyncs": count("merge.submit_snapshot", lambda s: s.tag == "resync") + sum(
            s.tag for s in named["merge.resync_engines"] if isinstance(s.tag, int)
        ),
        "aida.encode_host_self_s": owner_self["aida.to_dict"],
        "aida.decode_host_self_s": owner_self["aida.from_dict"] - decode_client,
        "aida.payload_nbytes_host_self_s": owner_self["aida.payload_nbytes"],
        "aida.reply_bytes_per_poll": sum(reply_bytes) / len(reply_bytes) if reply_bytes else 0.0,
        "aida.snapshot_bytes_per_publish": sum(publishes) / len(publishes) if publishes else 0.0,
        "client.poll_decode_host_self_s": decode_client,
        "client.session_sim_s.p90": percentile([r.sojourn for r in done], 90),
        "client.poll_sim_s.p50": _median(workload.poll_s),
        "client.poll_sim_s.p99": percentile(workload.poll_s, 99),
        "engine.chunks": len(chunks),
        "engine.physics_events": sum(chunks),
        "engine.process_host_self_s": owner_self["engine.process_chunk"],
        "engine.snapshot_host_self_s": owner_self["engine.take_snapshot"],
        "engine.compile_host_self_s": owner_self["engine.instantiate"],
        "engine.analysis_sim_s.p50": _median([r.t_final - r.t_run for r in done]),
        "dataset.generate_host_self_s": owner_self["dataset.generate"],
        "dataset.generated_events": sum(s.tag for s in named["dataset.generate"] if isinstance(s.tag, int)),
        "dataset.concat_host_self_s": owner_self["dataset.events_for"],
        "stage.fetch_sim_s.p50": _median([s.fetch_seconds for s in staged]),
        "stage.split_sim_s.p50": _median([s.split_seconds for s in staged]),
        "stage.move_parts_sim_s.p50": _median([s.move_parts_seconds for s in staged]),
        "stage.code_sim_s.p50": _median([p["code"] for p in phases.values()]),
        "stage.warm_share": sum(1 for s in staged if s.cold_parts == 0) / len(staged) if staged else 0.0,
        "transfer.flows": len(transfers),
        "transfer.mb_moved": sum(s.tag for s in transfers if isinstance(s.tag, (int, float))),
        "transfer.retries": sum(1 for s in transfers if isinstance(s.tag, str)),
        "transfer.host_self_s": layer_self["transfer"],
        "network.rebalances": count("network.maxmin"),
        "network.maxmin_host_self_s": owner_self["network.maxmin"],
        "splitter.host_self_s": layer_self["splitter"],
        "replica.plans": count("replica.plan_sources"),
        "replica.local_hits": sum(s.local_hits for s in staged),
        "replica.peer_hits": sum(s.peer_hits for s in staged),
        "replica.se_hits": sum(s.se_hits for s in staged),
        "replica.missing": sum(s.cold_parts for s in staged),
        "replica.host_self_s": layer_self["replica"],
        "admission.decisions": count("admission.acquire"),
        "admission.wait_sim_s.p50": _median(sim_durations("admission.acquire")),
        "admission.wait_sim_s.p90": percentile(sim_durations("admission.acquire"), 90),
        "admission.refusals": count("admission.acquire", lambda s: s.tag == "error:RetryAfter"),
        "admission.host_self_s": layer_self["admission"],
        "scheduler.jobs": count("scheduler.submit"),
        "scheduler.host_self_s": layer_self["scheduler"],
        "gram.submits": count("gram.submit"),
        "gram.host_self_s": layer_self["gram"],
        "security.handshakes": count("security.mutual_authenticate"),
        "security.host_self_s": layer_self["security"],
        "session.setup_sim_s.p50": _median([p["session_setup"] for p in phases.values()]),
        "broker.rank_calls": count("broker.rank"),
        "broker.host_self_s": layer_self["broker"],
        "broker.fallbacks": fed["fallbacks"] if fed else 0,
        "federation.migrations": fed["migrations"] if fed else 0,
        "federation.wan_mb": sum(row["wan_in_mb"] for row in fed["sites"]) if fed else 0.0,
        "federation.migrate_sim_s.p50": _median(
            sim_durations("federation.ensure_resident", lambda s: s.tag is True)
        ),
        "federation.failovers": fed["failovers"] if fed else 0,
        "session.requests": count(
            "envelope.call", lambda s: str(s.tag).startswith(("control.", "session."))
        ),
        "session.host_self_s": layer_self["session"],
        "registry.heartbeats": count("registry.heartbeat"),
        "heartbeat.host_self_s": layer_self["registry"] + layer_self["heartbeat"],
        "journal.records": count("journal.append"),
        "journal.host_self_s": layer_self["journal"],
        "checkpoint.writes": count("checkpoint.write"),
        "checkpoint.bytes": sum(
            s.tag[1] for s in store_appends if s.tag[0].startswith(CheckpointStore.PREFIX)
        ),
        "checkpoint.host_self_s": layer_self["checkpoint"],
        "recovery.faults_injected": sum(1 for _at, kind, _target in fault_log if kind in FAULT_KINDS),
        "recovery.redispatches": len(redispatches),
        "recovery.quarantines": len(recoveries),
        "recovery.detect_to_resume_sim_s.p50": _median(resume),
        "recovery.service_recover_sim_s": sum(sim_durations("recovery.recover")),
        "recovery.stuck_sessions": sum(
            1 for r in workload.sessions
            if r.failed and ("still running" in r.failed or "deadline" in r.failed)
        ),
        "fidelity.table2_mean_err_pct": (
            workload.fidelity_err_pct if workload.fidelity_err_pct is not None else -1.0
        ),
        "trace.spans": len(spans),
        "trace.overhead_pct": (workload.host_region_s / untraced.host_region_s - 1.0) * 100.0,
        "trace.unattributed_host_s": unattributed,
    }
    samples = {
        "envelope.sim_latency_s": count("envelope.call"),
        "container.queue_wait_sim_s.p99": count("container.admit"),
        "merge.poll_sim_s.p50": polls,
        "client.session_sim_s.p90": len(done),
        "client.poll_sim_s.p50": len(workload.poll_s),
        "client.poll_sim_s.p99": len(workload.poll_s),
        "admission.wait_sim_s.p50": count("admission.acquire"),
        "admission.wait_sim_s.p90": count("admission.acquire"),
        "recovery.detect_to_resume_sim_s.p50": len(resume),
    }

    # Reconciliation 2: every host second of the traced region is some
    # span's self time (layers + unattributed = region, within 2 %).
    # Spans run on the wall clock (a vDSO read; CPU-time reads are
    # syscalls and would triple the tracing overhead).
    attributed = sum(layer_self.values())
    if abs(attributed - workload.wall_region_s) > 0.02 * workload.wall_region_s:
        problems.append(
            f"host reconciliation: layer self times {attributed:.3f} s "
            f"vs traced region {workload.wall_region_s:.3f} s"
        )
    missing = {metric.name for metric in PER_LAYER} ^ set(m)
    if missing:
        problems.append(f"per-layer metrics out of step with spec.PER_LAYER: {sorted(missing)}")
    return m, samples, problems


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    layer_self: Dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        layer_self[span.layer] += span.self_s
    return layer_self


def shares(tracer: Tracer, top: int = 8) -> str:
    """'layer 41 %, ...' -- who did the host work, for the run's header."""
    layer_self = layer_self_times(tracer)
    total = sum(layer_self.values()) or 1.0
    ranked = sorted(layer_self.items(), key=lambda item: -item[1])[:top]
    return ", ".join(f"{layer} {100 * value / total:.0f} %" for layer, value in ranked)


def session_phases(tracer: Tracer, workload: Workload, by_id: Dict[int, Span]):
    """Reconciliation 1: client-phase sim spans sum to the session's sojourn.

    Phases come from the spans (not from the record they are checked
    against): connect (split into migrate, admission wait and session
    setup by the spans underneath it), stage, stage code, analysis (run
    issued -> final poll sent, sleeps included) and the final poll.
    """
    roots: Dict[object, Span] = {}
    top: Dict[object, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.name == "proc:drive_session":
            roots[span.session] = span
    root_of = {root.id: session for session, root in roots.items()}
    inside: Dict[Tuple[object, str], float] = defaultdict(float)
    for span in tracer.spans:
        if span.parent in root_of and span.name.startswith("client."):
            top[root_of[span.parent]].append(span)
        elif span.name in ("federation.ensure_resident", "admission.acquire"):
            # climb to the client op (if any) this happened under
            node, op = span, None
            while node is not None:
                if node.parent in root_of:
                    op = node
                    break
                node = by_id.get(node.parent)
            if op is not None and op.name == "client.connect":
                inside[(root_of[op.parent], span.name)] += span.sim_end - span.sim_start
    phases: Dict[int, dict] = {}
    problems: List[str] = []
    for record in workload.sessions:
        if record.failed is not None:
            continue
        ops = sorted(top.get(record.index, []), key=lambda s: (s.sim_start, s.id))
        first = {}
        for span in ops:
            first.setdefault(span.name, span)
        polls = [s for s in ops if s.name == "client.poll"]
        try:
            connect, select = first["client.connect"], first["client.select_dataset"]
            code, run, final = first["client.upload_code"], first["client.run"], polls[-1]
        except (KeyError, IndexError):
            problems.append(f"session {record.index}: client spans missing from the trace")
            continue
        migrate = inside[(record.index, "federation.ensure_resident")]
        admission = inside[(record.index, "admission.acquire")]
        connect_s = connect.sim_end - connect.sim_start
        phase = {
            "arrival_gap": connect.sim_start - record.due,
            "migrate": migrate,
            "admission_wait": admission,
            "session_setup": connect_s - migrate - admission,
            "stage": select.sim_end - connect.sim_end,
            "code": code.sim_end - select.sim_end,
            "analysis": final.sim_start - code.sim_end,
            "final_poll": final.sim_end - final.sim_start,
        }
        phases[record.index] = phase
        total = sum(phase.values())
        if abs(total - record.sojourn) > 1e-6 or phase["session_setup"] < -1e-6:
            problems.append(
                f"session {record.index}: phases sum to {total:.6f} s, sojourn is {record.sojourn:.6f} s"
            )
    return phases, problems
