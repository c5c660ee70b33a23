"""Concurrent-session serving: poll p99 must survive 1k+ sessions.

A service profile turns the container's envelope dispatch into a
request loop (finite dispatch slots, cooperative handlers), and the AIDA
manager coalesces concurrent polls of one session into a single
incremental merge.  This benchmark drives the serving plane at three
scales — 16 sessions (the paper's deployment), 256, and 1024 — with one
staggered poller per session, and gates two properties in CI:

* **p99 poll latency at 1024 sessions stays within a fixed factor of
  the 16-session baseline** (no head-of-line collapse: a thousand
  sessions queue for dispatch slots, they do not serialize behind each
  other's merges);
* **coalesced merged trees are bit-identical to the reference fold**:
  64 clients hammering one session receive, each round, exactly the dict
  ``tests.merge_oracle.reference_merge`` folds from that round's
  keyframe, while the manager runs ~rounds merges instead of
  ~clients x rounds.

Everything is measured on the *simulated* clock, so the numbers are
deterministic; wall-clock noise cannot flake the gate.

Writes ``benchmarks/out/BENCH_concurrency.json``.
"""

import json
from pathlib import Path

from repro.aida.hist1d import Histogram1D
from repro.bench.tables import ComparisonTable
from repro.engine.engine import AnalysisEngine
from repro.services.aida_manager import AIDAManagerService
from repro.services.envelope import ServiceContainer, ServiceProfile
from repro.sim import Environment
from tests.merge_oracle import reference_merge

OUT_JSON = Path(__file__).parent / "out" / "BENCH_concurrency.json"

#: Session-count sweep: baseline, mid, and the 1k+ gate case.
CASES = (16, 256, 1024)
BASELINE = CASES[0]
GATE = CASES[-1]
POLL_ROUNDS = 5
POLL_INTERVAL_S = 5.0
#: Container profile for the aida service: a finite dispatch pool with a
#: per-request un-marshalling cost — the resource 1k pollers contend for.
CONCURRENCY = 8
DISPATCH_OVERHEAD_S = 0.002
MERGE_COST_S = 0.05
#: CI gate: p99 at 1024 sessions within this factor of 16 sessions.
P99_FACTOR = 5.0
#: Absolute interactivity backstop (the poll-latency objective is 0.25 s).
P99_ABS_S = 0.5

#: Coalescing case: many clients, one session.
N_CLIENTS = 64
COALESCE_ROUNDS = 3
COALESCE_WINDOW_S = 0.05


def _snapshot_for(session_index):
    """One deterministic single-engine snapshot per session."""
    engine = AnalysisEngine(f"e-{session_index}")
    engine.tree.put(
        "/bench/h", Histogram1D("h", bins=32, lower=0.0, upper=1.0)
    )
    hist = engine.tree.get("/bench/h")
    for k in range(16):
        # Seeded, session-distinct fill pattern (no RNG needed).
        hist.fill(((session_index * 31 + k * 7) % 100) / 100.0)
    return engine.take_snapshot()


def _build_plane(n_sessions):
    """A serving plane with *n_sessions* one-engine sessions preloaded."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=MERGE_COST_S)
    container = ServiceContainer(env, soap_latency=0.25, rmi_latency=0.05)
    container.register("aida", {"merged": manager.merged})
    container.configure_service(
        "aida",
        ServiceProfile(
            concurrency=CONCURRENCY, dispatch_overhead_s=DISPATCH_OVERHEAD_S
        ),
    )
    container.issue_token("bench")
    for index in range(n_sessions):
        manager.submit_snapshot(f"s{index:05d}", _snapshot_for(index))
    return env, manager, container


def _poll_case(n_sessions):
    """One poller per session, phase-staggered; returns poll latencies."""
    env, manager, container = _build_plane(n_sessions)
    latencies = []

    def poller(index):
        # Spread arrivals across the poll interval, as real clients are.
        yield env.timeout(POLL_INTERVAL_S * index / n_sessions)
        for _ in range(POLL_ROUNDS):
            started = env.now
            yield container.call(
                "aida",
                "merged",
                {"session_id": f"s{index:05d}"},
                channel="rmi",
                token="bench",
            )
            latencies.append(env.now - started)
            yield env.timeout(POLL_INTERVAL_S)

    for index in range(n_sessions):
        env.process(poller(index))
    env.run()
    assert len(latencies) == n_sessions * POLL_ROUNDS
    return latencies


def _p99(latencies):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _round_keyframes():
    """The shared session's engine publishes a full keyframe before each
    coalescing round, one fill more each time, so every round has a new
    tree to merge."""
    engine = AnalysisEngine("e-shared")
    engine.tree.put(
        "/bench/h", Histogram1D("h", bins=32, lower=0.0, upper=1.0)
    )
    hist = engine.tree.get("/bench/h")
    keyframes = []
    for round_index in range(COALESCE_ROUNDS):
        hist.fill(((round_index * 7) % 100) / 100.0)
        keyframes.append(engine.take_snapshot(full=True))
    return keyframes


def _coalescing_case():
    """64 clients on one session: shared merges, bit-identical replies.

    Returns the reply tree of each round, the reference fold of each
    round's keyframe, and the merge count.
    """
    keyframes = _round_keyframes()
    env = Environment()
    manager = AIDAManagerService(
        env,
        merge_cost_per_tree=MERGE_COST_S,
        coalesce_window_s=COALESCE_WINDOW_S,
    )
    replies = [[] for _ in range(COALESCE_ROUNDS)]

    def poll(round_replies):
        tree, _progress = yield manager.merged("shared")
        round_replies.append(tree.to_dict())

    def round_driver():
        for keyframe, round_replies in zip(keyframes, replies):
            assert manager.submit_snapshot("shared", keyframe) == "accepted"
            # All clients poll concurrently — the in-flight merge the
            # keyframe started serves every joiner.
            yield env.all_of(
                [env.process(poll(round_replies)) for _ in range(N_CLIENTS)]
            )
            yield env.timeout(POLL_INTERVAL_S)

    env.run(until=env.process(round_driver()))
    # Within one round every reply is identical, so keep one exemplar
    # per round.
    for round_replies in replies:
        assert len(round_replies) == N_CLIENTS
        assert all(reply == round_replies[0] for reply in round_replies)
    trees = [round_replies[0] for round_replies in replies]
    references = [
        reference_merge({keyframe.engine_id: keyframe.tree})
        for keyframe in keyframes
    ]
    return trees, references, len(manager.merge_log)


def sweep():
    p99s = {n: _p99(_poll_case(n)) for n in CASES}
    return p99s, *_coalescing_case()


def test_concurrent_sessions(benchmark, report):
    p99s, trees, references, coalesced_merges = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    identical = trees == references
    factor = p99s[GATE] / p99s[BASELINE]

    table = ComparisonTable(
        "Concurrent-session serving: staggered pollers, "
        f"{POLL_ROUNDS} polls each (simulated seconds)",
        ["sessions", "polls", "p99 poll latency", "vs 16-session baseline"],
    )
    for n in CASES:
        table.add_row(
            str(n),
            str(n * POLL_ROUNDS),
            f"{p99s[n] * 1000:.1f} ms",
            f"x{p99s[n] / p99s[BASELINE]:.2f}",
        )
    report(
        "concurrent_sessions",
        table.render()
        + f"\ncoalescing: {N_CLIENTS} clients x {COALESCE_ROUNDS} rounds -> "
        f"{coalesced_merges} merges; trees bit-identical to the reference "
        f"fold: {identical}",
    )

    OUT_JSON.parent.mkdir(exist_ok=True)
    OUT_JSON.write_text(
        json.dumps(
            {
                "cases": list(CASES),
                "poll_rounds": POLL_ROUNDS,
                "poll_interval_s": POLL_INTERVAL_S,
                "container_concurrency": CONCURRENCY,
                "dispatch_overhead_s": DISPATCH_OVERHEAD_S,
                "p99_s": {str(n): p99s[n] for n in CASES},
                "p99_factor_vs_baseline": factor,
                "p99_factor_budget": P99_FACTOR,
                "p99_abs_budget_s": P99_ABS_S,
                "coalesce_clients": N_CLIENTS,
                "coalesce_rounds": COALESCE_ROUNDS,
                "coalesced_merges": coalesced_merges,
                "trees_bit_identical": identical,
            },
            indent=2,
        )
        + "\n"
    )

    # -- CI gates -------------------------------------------------------
    # Serving 1024 sessions must not collapse interactivity.
    assert factor <= P99_FACTOR, (
        f"p99 at {GATE} sessions is x{factor:.2f} the {BASELINE}-session "
        f"baseline (budget x{P99_FACTOR})"
    )
    assert p99s[GATE] <= P99_ABS_S
    # Coalesced replies are exactly the reference fold of each round's
    # keyframe, for far fewer merges than clients x rounds.
    assert identical
    assert coalesced_merges < N_CLIENTS * COALESCE_ROUNDS / 4
