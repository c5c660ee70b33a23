"""§2.5 — the merge tree with a fan-in vs the same tree as a single leaf.

"The component that performs the merging and displaying of analysis
results will become a bottleneck if there are a large number of users.
The system should be adaptable in such situations by being able to
accommodate a sub-level of components that performs the merging" (§2.5).

The manager *runs* the sub-merger tree: engines publish to per-group
combiners holding incremental partials, combiners republish upward, and a
merge re-folds only dirty subtrees while the combiner levels charge their
latency concurrently on the simulated clock.  Without a fan-in the same
``MergeTree`` is one leaf that owns every engine (depth 1) — the paper's
single merging component.

This benchmark feeds two managers — flat (``fan_in=None``, depth 1) and
tiered (fan-in 8) — byte-identical delta/keyframe snapshot streams at
4..1024 engines.
Every merge is taken in the worst case for the tier ablation, all
engines dirty, where flat charges O(n) tree merges and the tier charges
O(f·log_f n).  A round's first snapshot starts the merge, which folds
the whole round and is charged for it: the bench reads each merge's
latency from the manager's ``merge_log``, the merge's own record, and
then polls its reply.  After every merged
generation the two served trees must be *exactly* equal (serialized-dict
equality — fills are dyadic rationals so fold association cannot change
the float bits).  Results land in ``benchmarks/out/BENCH_merge_tree.json``;
the CI gate requires the tiered root merge at 1024 engines to cost at most
0.25x the flat merge (>= 4x speedup).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.bench.tables import ComparisonTable
from repro.engine.engine import AnalysisEngine
from repro.aida.hist1d import Histogram1D
from repro.services.aida_manager import AIDAManagerService
from repro.sim import Environment

ENGINE_COUNTS = (4, 16, 64, 256, 1024)
FAN_IN = 8
MERGE_COST = 0.01  # simulated seconds per tree merge
ROUNDS = 2  # all-dirty merges after the warm-up merge
BINS = 30
OUT_JSON = Path(__file__).parent / "out" / "BENCH_merge_tree.json"


def build_engines(n_engines):
    engines = []
    for i in range(n_engines):
        engine = AnalysisEngine(f"e{i:04d}", keyframe_every=4)
        engine.tree.put(
            "/bench/h", Histogram1D("h", bins=BINS, lower=0.0, upper=1.0)
        )
        engines.append(engine)
    return engines


def dyadic_fill(engine, rng):
    # k/32 values with k/16 weights: every partial sum is an exact dyadic
    # rational, so flat and hierarchical fold orders agree bit for bit.
    engine.tree.get("/bench/h").fill_array(
        rng.integers(0, 33, 64) / 32.0, rng.integers(1, 17, 64) / 16.0
    )


def measure(n_engines, fan_in):
    """Drive one manager through warm-up + all-dirty merges.

    Returns per-generation served trees, simulated merge latencies (from
    ``merge_log``), and wall-clock times of each merge.
    """
    env = Environment()
    manager = AIDAManagerService(
        env, merge_cost_per_tree=MERGE_COST, fan_in=fan_in
    )
    engines = build_engines(n_engines)
    manager.configure_tier("s1", [engine.engine_id for engine in engines])
    rng = np.random.default_rng(7)

    trees, sim_latencies, wall_times = [], [], []

    def all_dirty_merge():
        for engine in engines:
            dyadic_fill(engine, rng)
            manager.submit_snapshot("s1", engine.take_snapshot())
        started = time.perf_counter()
        env.run()
        wall_times.append(time.perf_counter() - started)
        _session, n_trees, latency = manager.merge_log[-1]
        assert n_trees == n_engines
        sim_latencies.append(latency)
        poll = manager.merged("s1")
        assert poll.processed  # the merge's reply, no merge of its own
        trees.append(poll.value[0])

    for _ in range(1 + ROUNDS):  # first round doubles as the warm-up
        all_dirty_merge()
    return {
        "trees": trees,
        "sim_latencies": sim_latencies,
        "wall_times": wall_times,
        "depth": manager.tier("s1").depth,
    }


def run_matrix():
    results = {}
    for n_engines in ENGINE_COUNTS:
        flat = measure(n_engines, fan_in=None)
        assert flat["depth"] == 1
        tiered = measure(n_engines, fan_in=FAN_IN)
        # Correctness first: the tier must serve the exact flat tree at
        # every merged generation (fold association changes nothing).
        for generation, (flat_tree, tiered_tree) in enumerate(
            zip(flat["trees"], tiered["trees"])
        ):
            assert tiered_tree.to_dict() == flat_tree.to_dict(), (
                f"tiered tree diverged from flat at {n_engines} engines, "
                f"generation {generation}"
            )
        flat_sim = min(flat["sim_latencies"][1:])
        tiered_sim = min(tiered["sim_latencies"][1:])
        results[n_engines] = {
            "flat": {
                "sim_merge_seconds": flat_sim,
                "wall_merge_seconds": min(flat["wall_times"][1:]),
            },
            "tiered": {
                "sim_merge_seconds": tiered_sim,
                "wall_merge_seconds": min(tiered["wall_times"][1:]),
                "depth": tiered["depth"],
            },
            "latency_ratio": flat_sim / tiered_sim,
            "identical_generations": len(flat["trees"]),
        }
    return results


def test_merge_tree(benchmark, report):
    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    table = ComparisonTable(
        f"All-dirty merge, flat vs combiner tier (fan-in {FAN_IN}, "
        f"{MERGE_COST} s per tree merge, min of {ROUNDS})",
        [
            "engines",
            "depth",
            "flat sim",
            "tiered sim",
            "speedup",
            "flat wall",
            "tiered wall",
        ],
    )
    for n_engines, row in results.items():
        table.add_row(
            n_engines,
            row["tiered"]["depth"],
            f"{row['flat']['sim_merge_seconds']:.2f} s",
            f"{row['tiered']['sim_merge_seconds']:.2f} s",
            f"{row['latency_ratio']:.1f}x",
            f"{row['flat']['wall_merge_seconds'] * 1000:.1f} ms",
            f"{row['tiered']['wall_merge_seconds'] * 1000:.1f} ms",
        )
    report("merge_tree", table.render())

    OUT_JSON.parent.mkdir(exist_ok=True)
    OUT_JSON.write_text(
        json.dumps(
            {
                "fan_in": FAN_IN,
                "merge_cost_per_tree": MERGE_COST,
                "rounds": ROUNDS,
                "bins": BINS,
                "engines": {str(k): v for k, v in results.items()},
            },
            indent=2,
        )
        + "\n"
    )

    # Sanity on the cost model itself: flat all-dirty is O(n).
    assert results[1024]["flat"]["sim_merge_seconds"] >= (
        1024 * MERGE_COST - 1e-6
    )
    # The tier never loses at any measured scale...
    for n_engines, row in results.items():
        if n_engines > FAN_IN:
            assert row["latency_ratio"] > 1.0, (
                f"tier slower than flat at {n_engines} engines"
            )
    # ...and the CI gate: at 1024 engines the root merge must cost at most
    # 0.25x the flat merge (the measured topology gives ~39x).
    gate = results[1024]
    assert (
        gate["tiered"]["sim_merge_seconds"]
        <= 0.25 * gate["flat"]["sim_merge_seconds"]
    ), (
        f"tiered merge at 1024 engines not <= 0.25x flat: "
        f"{gate['tiered']['sim_merge_seconds']:.2f} vs "
        f"{gate['flat']['sim_merge_seconds']:.2f}"
    )
    assert gate["latency_ratio"] >= 4.0, (
        f"expected >= 4x merge speedup at 1024 engines, got "
        f"{gate['latency_ratio']:.1f}x"
    )
