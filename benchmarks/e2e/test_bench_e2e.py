"""Self-test of the end-to-end benchmark (run explicitly; not part of tier-1)::

    python -m pytest benchmarks/e2e/test_bench_e2e.py -q

Drives ``run.py`` exactly as the driver does, at ``--tiny`` sizes.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
WORKLOADS = list(spec.WORKLOADS)


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, hashseed: int) -> dict:
    """One contract-style invocation; returns the JSON line plus the detail line."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env.pop("PYTHONPATH", None)  # the command must find src/ by itself
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.rstrip().split("\n")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("#detail "):])
    result["text"] = lines[:-2]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_completes_and_is_correct(workload):
    result = run(workload, 1, 0, 1)
    assert set(result) >= {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result["text"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(cell["value"] != 0 for cell in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_is_bit_identical_across_hash_seeds_and_tracing(workload):
    a, b = run(workload, 1, 0, 1), run(workload, 1, 0, 2)
    sim = [m.name for m in spec.END_TO_END if m.clock == "sim"]
    assert {k: a["metrics"][k] for k in sim} == {k: b["metrics"][k] for k in sim}
    assert a["detail"]["counts"] == b["detail"]["counts"]
    assert a["detail"]["trees"] == b["detail"]["trees"]
    traced = run(workload, 1, 1, 2)
    assert traced["detail"]["counts"] == a["detail"]["counts"]
    assert traced["detail"]["trees"] == a["detail"]["trees"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_is_another_input(workload):
    a, b = run(workload, 1, 0, 1), run(workload, 2, 0, 1)
    assert a["detail"]["counts"] != b["detail"]["counts"] or a["metrics"] != b["metrics"]
    assert a["metrics"]["makespan_sim_s"] != b["metrics"]["makespan_sim_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reconciles(workload):
    # correct=true means: oracle passed, tracing left the simulation
    # bit-identical, per-session phases sum to the sojourn within 1e-6 s
    # and layer self times add up to the traced region within 2 %.
    result = run(workload, 1, 1, 2)
    assert result["correct"] is True, result["text"]
    assert result["metrics"]["trace.spans"]["value"] > 0
    assert result["metrics"]["sim.events"]["value"] == result["detail"]["counts"]["kernel_events"]


def test_chaos_exercises_recovery():
    layer = run("chaos_recovery", 1, 1, 2)["metrics"]
    assert layer["recovery.faults_injected"]["value"] >= 1
    assert layer["recovery.redispatches"]["value"] >= 1
    assert layer["merge.resyncs"]["value"] >= 1


def test_printed_names_match_the_contract_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json(), "regenerate: python3 benchmarks/e2e/spec.py > BENCHMARK.json"
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    end_to_end = run("fed_open_loop", 1, 0, 1)["metrics"]
    per_layer = run("fed_open_loop", 1, 1, 2)["metrics"]
    assert list(end_to_end) == [m["name"] for m in declared["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in declared["per_layer"]]
    for name, cell in {**end_to_end, **per_layer}.items():
        assert NAME.fullmatch(name), name
        assert isinstance(cell["value"], (int, float))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert all(cell["unit"] == units[name] for name, cell in {**end_to_end, **per_layer}.items())
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in declared["end_to_end"])


def test_refuses_to_run_without_the_system_under_test(tmp_path):
    # The driver also runs the command where only BENCHMARK.json and the
    # benchmark's own files exist; it must fail fast, printing no result.
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            (target / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "poll_storm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _fake(seed, value, reps, failed=0):
    metrics = {m.name: {"value": 1.0, "unit": m.unit} for m in spec.END_TO_END}
    metrics["host_s_per_session"]["value"] = value
    detail = {"repetitions": {"host_s_per_session": reps}, "counts": {"kernel_events": 7}, "trees": "x"}
    entry = {"correct": True, "attempted": 10, "failed": failed, "metrics": metrics, "detail": detail}
    return {"seed": seed, "workloads": {name: {"end_to_end": entry} for name in WORKLOADS}}


def test_compare_verdicts():
    declared = spec.benchmark_json()
    rows = []
    same = compare.compare(_fake(1, 1.0, [1.0, 1.01, 0.99]), _fake(1, 1.02, [1.02, 1.03, 1.01]), declared, rows.append)
    assert same == 0 and not any(row.endswith("worse") for row in rows)
    rows.clear()
    worse = compare.compare(_fake(1, 1.0, [1.0, 1.01, 0.99]), _fake(1, 1.3, [1.3, 1.31, 1.29]), declared, rows.append)
    assert worse == 1 and any("host_s_per_session" in row and row.endswith("worse") for row in rows)
    rows.clear()
    noisy = compare.compare(_fake(1, 1.0, [0.8, 1.0, 1.3]), _fake(1, 1.2, [0.9, 1.2, 1.4]), declared, rows.append)
    assert noisy == 0 and any(row.endswith("unresolved") for row in rows)
    assert compare.compare(_fake(1, 1.0, [1.0]), _fake(1, 1.0, [1.0], failed=1), declared, rows.append) == 1
    sim_moved = _fake(1, 1.0, [1.0])
    for entry in sim_moved["workloads"].values():
        entry["end_to_end"]["metrics"]["session_sim_s.p50"]["value"] = 1.000001
    assert compare.compare(_fake(1, 1.0, [1.0]), sim_moved, declared, rows.append) == 1  # same seed: exact
    sim_moved["seed"] = 2
    assert compare.compare(_fake(1, 1.0, [1.0]), sim_moved, declared, rows.append) == 0  # other seed: bound
