"""Observability overhead — the whole telemetry plane must stay below 5%.

The instrumentation across the three tiers (service container, grid
fabric, engines) routes through null objects when disabled and through the
real tracer/registry/event-log when enabled.  The plane is write-only —
nothing in the product reads it back to decide anything; the poll-latency
objective is folded from the finished trace after the run.
This benchmark runs the reference 16-node Higgs experiment both ways,
interleaved, writes the CI gate file ``benchmarks/out/BENCH_obs.json``,
and asserts:

* the *simulated* phase breakdown is bit-identical — recording telemetry
  must never perturb the model;
* the wall-clock cost of enabling it is < 5% (min-of-N to reject
  scheduler noise, plus a small absolute floor because the whole run takes
  only tens of milliseconds).
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench.tables import ComparisonTable
from repro.core.experiment import run_grid_experiment
from repro.obs.dashboard import poll_objective
from repro.obs.exporters import span_to_dict

OUT_JSON = Path(__file__).parent / "out" / "BENCH_obs.json"

SIZE_MB = 471.0
NODES = 16
ROUNDS = 5
MAX_OVERHEAD = 0.05
#: Absolute slack (seconds) absorbing timer granularity on a ~50 ms run.
ABS_SLACK = 0.005

PHASES = (
    "session_setup",
    "move_whole",
    "split",
    "move_parts",
    "stage_code",
    "analysis",
)


def _one_run(observability: bool):
    started = time.perf_counter()
    breakdown = run_grid_experiment(
        SIZE_MB,
        NODES,
        events_per_mb=4,
        collect_tree=False,
        observability=observability,
    )
    return time.perf_counter() - started, breakdown


def measure():
    # Warm-up (imports, numpy first-touch) outside the measured rounds.
    _one_run(False)
    _one_run(True)
    disabled, enabled = [], []
    baseline = traced = None
    for _ in range(ROUNDS):
        seconds, baseline = _one_run(False)
        disabled.append(seconds)
        seconds, traced = _one_run(True)
        enabled.append(seconds)
    return min(disabled), min(enabled), baseline, traced


def test_obs_overhead(benchmark, report):
    off_s, on_s, baseline, traced = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    overhead = on_s / off_s - 1.0

    obs = traced.obs
    n_events = sum(obs.events.counts().values())
    slo_row = poll_objective(
        map(span_to_dict, obs.tracer.finished_spans()), now=obs.env.now
    )
    table = ComparisonTable(
        "Observability overhead: 471 MB / 16 nodes (min of "
        f"{ROUNDS} interleaved runs)",
        ["configuration", "wall-clock", "spans", "metrics", "events", "polls"],
    )
    table.add_row("disabled", f"{off_s * 1000:.1f} ms", 0, 0, 0, 0)
    table.add_row(
        "enabled",
        f"{on_s * 1000:.1f} ms",
        len(obs.tracer.spans),
        len(obs.metrics.metrics),
        n_events,
        slo_row["samples"],
    )
    report(
        "obs_overhead",
        table.render() + f"\noverhead: {overhead * 100:+.2f}% "
        f"(budget: {MAX_OVERHEAD * 100:.0f}%)",
    )

    # Determinism: telemetry must not move the simulated clock.
    phases_identical = True
    for phase in PHASES:
        assert getattr(traced, phase) == getattr(baseline, phase), phase

    OUT_JSON.parent.mkdir(exist_ok=True)
    OUT_JSON.write_text(
        json.dumps(
            {
                "size_mb": SIZE_MB,
                "nodes": NODES,
                "rounds": ROUNDS,
                "disabled_wall_s": off_s,
                "enabled_wall_s": on_s,
                "overhead_fraction": overhead,
                "max_overhead": MAX_OVERHEAD,
                "abs_slack_s": ABS_SLACK,
                "phases_bit_identical": phases_identical,
                "spans": len(obs.tracer.spans),
                "metrics": len(obs.metrics.metrics),
                "events": n_events,
                "poll_samples": slo_row["samples"],
            },
            indent=2,
        )
        + "\n"
    )

    # The run actually produced telemetry across every subsystem...
    assert obs is not None and len(obs.tracer.spans) > 50
    assert n_events > 0, "event log saw no structured events"
    assert slo_row["name"] == "poll-latency"
    assert slo_row["samples"] > 0, "the trace holds no served polls"
    assert baseline.obs is None
    # ...for under 5% wall-clock.
    assert on_s <= off_s * (1 + MAX_OVERHEAD) + ABS_SLACK, (
        f"observability overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}%"
    )
