"""Operator CLI for the telemetry plane: ``python -m repro.obs``.

Render exported telemetry offline, or record a fresh instrumented run:

* ``trace spans.jsonl`` — indented trace tree;
* ``phases spans.jsonl`` — per-phase summary table;
* ``events events.jsonl`` — the structured event log;
* ``profile profile.jsonl`` — folded-stack flame table;
* ``dashboard --events E [--profile P] [--spans S]`` — the status board
  rebuilt from exported artifacts (the poll-latency objective and its
  breaches are folded from the spans alone);
* ``record --out DIR`` — run a seeded, fully instrumented 16-node
  session (optionally with an injected slow node) and export
  ``spans.jsonl`` / ``events.jsonl`` / ``profile.jsonl`` /
  ``metrics.prom`` / ``dashboard.txt`` — what the chaos CI job uploads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional


def _read(path: str) -> str:
    return Path(path).read_text()


def cmd_trace(args: argparse.Namespace) -> str:
    from repro.obs.exporters import render_tree_records, spans_from_jsonl

    return render_tree_records(
        spans_from_jsonl(_read(args.file)), max_depth=args.max_depth
    )


def cmd_phases(args: argparse.Namespace) -> str:
    from repro.obs.exporters import phase_summary_records, spans_from_jsonl

    return phase_summary_records(spans_from_jsonl(_read(args.file)))


def cmd_events(args: argparse.Namespace) -> str:
    from repro.obs.events import events_from_jsonl, render_events

    events = events_from_jsonl(_read(args.file))
    if args.kind:
        events = [e for e in events if e.kind == args.kind]
    return render_events(events, limit=args.tail)


def cmd_profile(args: argparse.Namespace) -> str:
    from repro.obs.profile import profile_from_jsonl, render_profile

    return render_profile(
        profile_from_jsonl(_read(args.file)), limit=args.limit
    )


def cmd_dashboard(args: argparse.Namespace) -> str:
    from repro.obs.dashboard import board_from_jsonl

    return board_from_jsonl(
        events_text=_read(args.events) if args.events else None,
        profile_text=_read(args.profile) if args.profile else None,
        spans_text=_read(args.spans) if args.spans else None,
    )


def record_run(
    out_dir: Path,
    nodes: int = 16,
    size_mb: float = 480.0,
    n_events: int = 160_000,
    slow_worker: Optional[str] = None,
    slow_factor: float = 4.0,
    seed: int = 0,
    sample_period: float = 2.0,
) -> dict:
    """Run one instrumented session and export its telemetry artifacts.

    Returns a small summary dict (session id, the poll-latency
    objective folded from the whole trace and its breach count, artifact
    paths) so tests and the CI job can assert on the result.
    """
    from repro.analysis import higgs
    from repro.client.client import IPAClient
    from repro.core.site import GridSite, SiteConfig
    from repro.obs.dashboard import poll_objective, render_board
    from repro.obs.exporters import (
        metrics_to_prometheus,
        span_to_dict,
        trace_to_jsonl,
    )
    from repro.obs.profile import SamplingProfiler, profile_to_jsonl

    site = GridSite(
        SiteConfig(n_workers=nodes, enable_observability=True)
    )
    site.register_dataset(
        "ds-telemetry",
        "/test/ds-telemetry",
        size_mb=size_mb,
        n_events=n_events,
        metadata={"experiment": "ilc"},
        content={"kind": "ilc", "seed": seed},
    )
    client = IPAClient(site, site.enroll_user("/O=ILC/CN=telemetry"))
    profiler = SamplingProfiler(site.obs, period=sample_period)
    profiler.install(site.env)
    out: dict = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=nodes)
        out["session_id"] = info.session_id
        yield from client.select_dataset("ds-telemetry")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        if slow_worker is not None:
            # Let the engines publish once, then degrade the victim.
            while site.aida.snapshot_count(info.session_id) < nodes:
                yield site.env.timeout(1.0)
            site.injector.slow_worker(slow_worker, slow_factor)
        final = yield from client.wait_for_completion(
            poll_interval=5.0, timeout=100_000.0
        )
        out["events_processed"] = final.progress.events_processed
        out["board"] = render_board(
            site.obs,
            session_service=site.session_service,
            session_id=info.session_id,
        )
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    profiler.stop()

    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "spans": out_dir / "spans.jsonl",
        "events": out_dir / "events.jsonl",
        "profile": out_dir / "profile.jsonl",
        "metrics": out_dir / "metrics.prom",
        "dashboard": out_dir / "dashboard.txt",
    }
    artifacts["spans"].write_text(trace_to_jsonl(site.obs.tracer) + "\n")
    artifacts["events"].write_text(site.obs.events.to_jsonl() + "\n")
    artifacts["profile"].write_text(
        profile_to_jsonl(profiler.weights) + "\n"
    )
    artifacts["metrics"].write_text(
        metrics_to_prometheus(site.obs.metrics)
    )
    artifacts["dashboard"].write_text(out["board"] + "\n")

    out["paths"] = {name: str(path) for name, path in artifacts.items()}
    out["slo"] = poll_objective(
        map(span_to_dict, site.obs.tracer.finished_spans())
    )
    out["slo_breaches"] = len(out["slo"]["breaches"])
    out["event_counts"] = site.obs.events.counts()
    return out


def cmd_record(args: argparse.Namespace) -> str:
    slow_worker = None
    slow_factor = 4.0
    if args.slow:
        slow_worker, _, factor_text = args.slow.partition(":")
        if factor_text:
            slow_factor = float(factor_text)
    summary = record_run(
        Path(args.out),
        nodes=args.nodes,
        size_mb=args.size_mb,
        n_events=args.events,
        slow_worker=slow_worker,
        slow_factor=slow_factor,
        seed=args.seed,
    )
    lines = [
        f"session: {summary['session_id']}",
        f"events processed: {summary['events_processed']}",
        f"slo breaches: {summary['slo_breaches']}",
        "artifacts:",
    ]
    lines.extend(
        f"  {name}: {path}" for name, path in sorted(summary["paths"].items())
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render exported telemetry or record an instrumented run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="render a trace tree from spans JSONL")
    p.add_argument("file")
    p.add_argument("--max-depth", type=int, default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("phases", help="per-phase summary from spans JSONL")
    p.add_argument("file")
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("events", help="render an event log from JSONL")
    p.add_argument("file")
    p.add_argument("--kind", default=None)
    p.add_argument("--tail", type=int, default=None)
    p.set_defaults(func=cmd_events)

    p = sub.add_parser("profile", help="render a folded profile from JSONL")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "dashboard", help="rebuild the status board from exported JSONL"
    )
    p.add_argument("--events", default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--spans", default=None)
    p.set_defaults(func=cmd_dashboard)

    p = sub.add_parser(
        "record", help="run an instrumented session and export telemetry"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--size-mb", type=float, default=480.0)
    p.add_argument("--events", type=int, default=160_000)
    p.add_argument(
        "--slow",
        default=None,
        metavar="WORKER[:FACTOR]",
        help="inject a slow-node fault mid-run (e.g. w3:4)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_record)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    print(args.func(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
