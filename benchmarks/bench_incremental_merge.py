"""Incremental merge pipeline — poll latency and payload vs the old path.

The old result path re-deserialized and re-merged every engine's full
snapshot on every poll, and shipped every array as a JSON list; that
from-scratch fold survives only as the tests' reference oracle
(``tests/merge_oracle.py``), which is what the "old" column times.  The
manager keeps deserialized per-engine trees in its merge tree, accepts
delta snapshots (changed objects only, full keyframes every N), re-folds
only dirty paths per poll, and encodes arrays with the compact base64
codec.

This benchmark measures, at 4/16/64/256 engines, the steady-state case the
paper's interactive loop lives in: one engine publishes an update between
polls while the rest are idle.  It reports wall-clock poll latency and
per-update payload bytes for both, writes
``benchmarks/out/BENCH_merge.json``, and asserts the headline numbers
(>= 5x faster and >= 3x smaller at 64 engines) — this is the CI gate for
the incremental path.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.aida.codec import codec_disabled, payload_nbytes
from repro.aida.hist1d import Histogram1D
from repro.bench.tables import ComparisonTable
from repro.engine.engine import AnalysisEngine
from repro.services.aida_manager import AIDAManagerService
from repro.sim import Environment
from tests.merge_oracle import reference_merge

ENGINE_COUNTS = (4, 16, 64, 256)
HISTS_PER_TREE = 16
BINS = 200
ROUNDS = 3
OUT_JSON = Path(__file__).parent / "out" / "BENCH_merge.json"


def build_engines(n_engines, delta, seed=12):
    rng = np.random.default_rng(seed)
    engines = []
    for i in range(n_engines):
        engine = AnalysisEngine(
            f"e{i:03d}", delta_snapshots=delta, keyframe_every=8
        )
        for h in range(HISTS_PER_TREE):
            hist = Histogram1D(f"h{h}", bins=BINS, lower=0.0, upper=1.0)
            hist.fill_array(rng.random(200), rng.random(200))
            engine.tree.put(f"/bench/h{h}", hist)
        engines.append(engine)
    return engines


def steady_state(engines, submit, poll):
    """Drive one result path: returns (best poll seconds, payload
    bytes/update) with one engine updating one histogram between polls."""
    rng = np.random.default_rng(34)

    def publish(engine):
        snapshot = engine.take_snapshot()
        submit(snapshot)
        return payload_nbytes(snapshot.tree)

    # Warm-up: every engine reports once (full snapshots), one poll to
    # build the manager's partial merges.
    for engine in engines:
        publish(engine)
    poll()

    latencies, payloads = [], []
    for round_no in range(ROUNDS):
        engine = engines[round_no % len(engines)]
        engine.tree.get("/bench/h0").fill_array(rng.random(50), rng.random(50))
        payloads.append(publish(engine))
        started = time.perf_counter()
        tree_dict = poll()
        latencies.append(time.perf_counter() - started)
    assert len(tree_dict["objects"]) == HISTS_PER_TREE
    return min(latencies), sum(payloads) / len(payloads)


def measure_reference(n_engines):
    """The old path: full snapshots, from-scratch oracle fold per poll."""
    latest = {}

    def submit(snapshot):
        latest[snapshot.engine_id] = snapshot.tree

    return steady_state(
        build_engines(n_engines, delta=False),
        submit,
        lambda: reference_merge(latest),
    )


def measure_manager(n_engines):
    """The manager: delta snapshots into the merge tree, dirty re-fold."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    return steady_state(
        build_engines(n_engines, delta=True),
        lambda snapshot: manager.submit_snapshot("s1", snapshot),
        lambda: env.run(until=manager.merged("s1"))[0],
    )


def run_matrix():
    results = {}
    for n_engines in ENGINE_COUNTS:
        with codec_disabled():
            old_s, old_bytes = measure_reference(n_engines)
        new_s, new_bytes = measure_manager(n_engines)
        results[n_engines] = {
            "old": {"poll_seconds": old_s, "payload_bytes": old_bytes},
            "new": {"poll_seconds": new_s, "payload_bytes": new_bytes},
            "latency_ratio": old_s / new_s,
            "payload_ratio": old_bytes / new_bytes,
        }
    return results


def test_incremental_merge_speedup(benchmark, report):
    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    table = ComparisonTable(
        f"Steady-state poll (1 of N engines dirty, {HISTS_PER_TREE} "
        f"hists x {BINS} bins per tree, min of {ROUNDS})",
        [
            "engines",
            "old poll",
            "new poll",
            "speedup",
            "old payload",
            "new payload",
            "shrink",
        ],
    )
    for n_engines, row in results.items():
        table.add_row(
            n_engines,
            f"{row['old']['poll_seconds'] * 1000:.2f} ms",
            f"{row['new']['poll_seconds'] * 1000:.2f} ms",
            f"{row['latency_ratio']:.1f}x",
            f"{row['old']['payload_bytes'] / 1024:.1f} kB",
            f"{row['new']['payload_bytes'] / 1024:.1f} kB",
            f"{row['payload_ratio']:.1f}x",
        )
    report("incremental_merge", table.render())

    OUT_JSON.parent.mkdir(exist_ok=True)
    OUT_JSON.write_text(
        json.dumps(
            {
                "hists_per_tree": HISTS_PER_TREE,
                "bins": BINS,
                "rounds": ROUNDS,
                "engines": {str(k): v for k, v in results.items()},
            },
            indent=2,
        )
        + "\n"
    )

    # CI gate: the incremental path must never lose to from-scratch at
    # scale, and the headline claims must hold.
    gate = results[64]
    assert gate["latency_ratio"] > 1.0, (
        f"incremental poll slower than from-scratch at 64 engines: "
        f"{gate['latency_ratio']:.2f}x"
    )
    assert gate["latency_ratio"] >= 5.0, (
        f"expected >= 5x poll speedup at 64 engines, got "
        f"{gate['latency_ratio']:.1f}x"
    )
    assert gate["payload_ratio"] >= 3.0, (
        f"expected >= 3x payload shrink at 64 engines, got "
        f"{gate['payload_ratio']:.1f}x"
    )
