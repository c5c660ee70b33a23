"""Operator CLI: ``python -m repro.obs`` subcommands end to end."""

import json

import pytest

from repro.obs.__main__ import main, record_run
from repro.obs.dashboard import board_from_jsonl, nodes_section

#: The ``slow_node_run`` board's objective row and breach line: a merge
#: runs as the engines' snapshots land, and the polls that land during
#: one of the 16 engines' merges wait for it.
SLOW_NODE_LINES = [
    "  poll-latency     p99    0.100s / 0.250s  ok     budget 100%  "
    "burn  0.0x  (11 samples/60s)",
    "  breach at t=330.70s: p99 0.377s over 5 samples",
]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One small instrumented run recorded through the CLI entry point."""
    out_dir = tmp_path_factory.mktemp("cli-telemetry")
    summary = record_run(
        out_dir, nodes=4, size_mb=96.0, n_events=8_000
    )
    return summary, out_dir


def test_record_exports_all_artifacts(recorded):
    summary, out_dir = recorded
    for name in ("spans", "events", "profile", "metrics", "dashboard"):
        assert name in summary["paths"]
    assert (out_dir / "spans.jsonl").stat().st_size > 0
    assert (out_dir / "events.jsonl").stat().st_size > 0
    assert (out_dir / "profile.jsonl").stat().st_size > 0
    assert "# TYPE" in (out_dir / "metrics.prom").read_text()
    assert "ipa status board" in (out_dir / "dashboard.txt").read_text()
    assert summary["events_processed"] == 8_000
    assert summary["event_counts"]["session_created"] == 1
    assert summary["event_counts"]["session_closed"] == 1
    assert summary["event_counts"]["checkpoint_committed"] > 0


def test_record_subcommand_via_main(tmp_path, capsys):
    assert (
        main(
            [
                "record",
                "--out",
                str(tmp_path),
                "--nodes",
                "4",
                "--size-mb",
                "96",
                "--events",
                "8000",
                "--slow",
                "w1:4",
            ]
        )
        == 0
    )
    printed = capsys.readouterr().out
    assert "session: session-1" in printed
    assert "slo breaches:" in printed
    assert "artifacts:" in printed
    events = [
        json.loads(line)
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
        if line.strip()
    ]
    assert any(
        e["kind"] == "fault_injected" and e["attrs"]["target"] == "w1"
        for e in events
    )


def test_trace_and_phases_subcommands(recorded, capsys):
    _, out_dir = recorded
    spans = str(out_dir / "spans.jsonl")
    assert main(["trace", spans, "--max-depth", "2"]) == 0
    rendered = capsys.readouterr().out
    assert "call:control.create_session" in rendered
    assert "session.create" in rendered
    assert main(["phases", spans]) == 0
    table = capsys.readouterr().out
    for phase in ("move_whole", "split", "move_parts", "stage_code"):
        assert phase in table
    assert "total" in table


def test_events_subcommand_with_filters(recorded, capsys):
    _, out_dir = recorded
    events = str(out_dir / "events.jsonl")
    assert main(["events", events]) == 0
    assert "session_created" in capsys.readouterr().out
    assert main(["events", events, "--kind", "session_closed", "--tail", "1"]) == 0
    filtered = capsys.readouterr().out
    assert "session_closed" in filtered
    assert "session_created" not in filtered


def test_profile_subcommand(recorded, capsys):
    _, out_dir = recorded
    assert main(["profile", str(out_dir / "profile.jsonl"), "--limit", "5"]) == 0
    rendered = capsys.readouterr().out
    assert "stack" in rendered
    assert "seconds" in rendered


def test_dashboard_subcommand_from_artifacts(recorded, capsys):
    _, out_dir = recorded
    assert (
        main(
            [
                "dashboard",
                "--events",
                str(out_dir / "events.jsonl"),
                "--profile",
                str(out_dir / "profile.jsonl"),
                "--spans",
                str(out_dir / "spans.jsonl"),
            ]
        )
        == 0
    )
    board = capsys.readouterr().out
    assert "ipa status board (from export)" in board
    assert "profile:" in board
    assert "SLO breaches" in board
    assert main(["dashboard"]) == 0
    assert "(no artifacts provided)" in capsys.readouterr().out


def test_status_board_rows_in_engine_order_with_aligned_bars():
    # ``SessionService.status`` lists engines in string order.
    rows = [
        {
            "engine_id": f"session-3-engine-{k}",
            "worker": f"w{k}",
            "cursor": 50 * k,
            "total": 600,
            "state": "running",
        }
        for k in sorted(range(12), key=str)
    ]
    lines = nodes_section(rows)
    assert [line.split()[1] for line in lines] == [
        f"session-3-engine-{k}" for k in range(12)
    ]
    assert len({line.index("[") for line in lines}) == 1


# -- acceptance: seeded 16-node run with one injected slow node ------------

@pytest.fixture(scope="module")
def slow_node_run(tmp_path_factory):
    """``record --slow w5:4`` at 16 nodes (one 4x-slow engine): a poll
    that lands during a merge of the other engines' lock-step snapshots
    waits for it, past the default ``poll-latency`` objective."""
    out_dir = tmp_path_factory.mktemp("telemetry")
    summary = record_run(
        out_dir,
        nodes=16,
        size_mb=480.0,
        n_events=80_000,
        slow_worker="w5",
        slow_factor=4.0,
    )
    events = [
        json.loads(line)
        for line in (out_dir / "events.jsonl").read_text().splitlines()
        if line.strip()
    ]
    return summary, events, out_dir


def objective_lines(board):
    return [
        line for line in board.splitlines()
        if line.startswith(("  poll-", "  breach"))
    ]


def test_acceptance_poll_latency_breach_reported_as_event(slow_node_run):
    summary, events, out_dir = slow_node_run
    # Pinned to what the write-time SLO tracker this fold replaced
    # reported for the same run: one breach, folded from the trace.
    assert summary["slo_breaches"] == 1
    assert summary["slo"]["breaches"] == [
        (330.6965329441748, 0.3772480000000587, 5)
    ]
    board = (out_dir / "dashboard.txt").read_text()
    assert objective_lines(board) == SLOW_NODE_LINES
    assert not [e for e in events if e["kind"].startswith("slo_")]


def test_live_board_row_equals_the_row_folded_from_spans_jsonl(slow_node_run):
    _, _, out_dir = slow_node_run
    live = (out_dir / "dashboard.txt").read_text()
    offline = board_from_jsonl(spans_text=(out_dir / "spans.jsonl").read_text())
    assert objective_lines(live) == objective_lines(offline) == SLOW_NODE_LINES


def test_acceptance_dashboard_shows_breach(slow_node_run):
    _, _, out_dir = slow_node_run
    board = (out_dir / "dashboard.txt").read_text()
    assert "breach at t=330.70s" in board
    assert "poll-latency" in board
