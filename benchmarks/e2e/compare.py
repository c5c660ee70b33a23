#!/usr/bin/env python3
"""Compare two ``run.py --json`` files: parent A, change B.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (end-to-end metric, workload) with a verdict:

``same``        B is within the metric's bound of A
``better``      B is better than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the run-to-run spread of a host-clock metric is wider than
                its bound, and B's repetitions do not all sit on one side
                of A's, so one pair of runs cannot tell

Direction and bound come from ``BENCHMARK.json``.  When A and B were made
with the same seed, sim-clock metrics, event counts and tree digests must
be *identical* (the simulator is deterministic): any difference is a
behaviour change and is shown as ``worse``/``better`` by direction with a
zero bound; per-layer sim-clock numbers and counts that moved are listed
as ``changed`` (they have no bound and do not fail the comparison).

Exit status is non-zero on any ``worse``, on a higher failed share, or on
a run that reported ``correct: false``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
EXACT_UNITS = ("sim_s", "count")


def spread(values) -> float:
    """Quartile distance over median (range over median under 4 samples)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(a: float, b: float, better: str, bound: float, reps_a=None, reps_b=None) -> str:
    if a == b:
        return "same"
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b - a) / abs(a) if a else sign * (b - a)
    if reps_a and reps_b and max(spread(reps_a), spread(reps_b)) > bound:
        worse_all = all(sign * (y - x) > 0 for x in reps_a for y in reps_b)
        better_all = all(sign * (y - x) < 0 for x in reps_a for y in reps_b)
        if not (worse_all or better_all):
            return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, spec: dict, out=print) -> int:
    same_seed = a["seed"] == b["seed"]
    out(f"seed A={a['seed']} B={b['seed']}"
        + ("  (same seed: sim-clock metrics, counts and trees must be identical)" if same_seed else ""))
    out(f"{'workload':16s} {'metric':28s} {'A':>14s} {'B':>14s} {'change':>9s} {'bound':>6s}  verdict")
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            out(f"{name:16s} missing from one side")
            status = 1
            continue
        ea, eb = a["workloads"][name]["end_to_end"], b["workloads"][name]["end_to_end"]
        for metric in spec["end_to_end"]:
            key, unit = metric["name"], metric["unit"]
            va, vb = ea["metrics"][key]["value"], eb["metrics"][key]["value"]
            exact = same_seed and unit in EXACT_UNITS
            reps_a = ea["detail"]["repetitions"].get(key)
            reps_b = eb["detail"]["repetitions"].get(key)
            result = verdict(va, vb, metric["better"], 0.0 if exact else metric["bound"], reps_a, reps_b)
            change = (vb - va) / abs(va) if va else 0.0
            out(f"{name:16s} {key:28s} {va:14.6g} {vb:14.6g} {change:+9.2%} "
                f"{'exact' if exact else format(metric['bound'], '.2f'):>6s}  {result}")
            if result == "worse":
                status = 1
        share_a, share_b = ea["failed"] / ea["attempted"], eb["failed"] / eb["attempted"]
        if share_b > share_a:
            out(f"{name:16s} sessions_failed_share rose: {share_a:.4f} -> {share_b:.4f}  worse")
            status = 1
        for side, entry in (("A", ea), ("B", eb)):
            if not entry["correct"]:
                out(f"{name:16s} run {side} reported correct=false")
                status = 1
        if same_seed:
            if ea["detail"]["counts"] != eb["detail"]["counts"]:
                out(f"{name:16s} counts changed: {ea['detail']['counts']} -> {eb['detail']['counts']}  worse")
                status = 1
            if ea["detail"]["trees"] != eb["detail"]["trees"]:
                out(f"{name:16s} merged trees changed (digest of all session digests differs)  worse")
                status = 1
            la = a["workloads"][name].get("per_layer")
            lb = b["workloads"][name].get("per_layer")
            if la and lb:
                for key, cell in la["metrics"].items():
                    other = lb["metrics"].get(key)
                    if cell["unit"] in EXACT_UNITS and other and other["value"] != cell["value"]:
                        out(f"{name:16s} {key:28s} {cell['value']:14.6g} {other['value']:14.6g}"
                            f" {'':9s} {'':6s}  changed")
    return status


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv[1:])
    return compare(a, b, json.loads(BENCHMARK.read_text()))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
