#!/usr/bin/env python3
"""End-to-end benchmark: four workloads through the real service stack.

One workload, the driver's contract (last stdout line is one JSON object)::

    python3 benchmarks/e2e/run.py --workload fed_open_loop --seed 1 --seconds 15 --trace 0

Everything, for people (each workload in a fresh subprocess, untraced
then traced; ``--json`` keeps the numbers for ``compare.py``)::

    python3 benchmarks/e2e/run.py --seed 1 --json A.json

See README.md next to this file for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# One thread, before numpy loads: BLAS/OpenMP pools otherwise spin on the
# second core, which inflates CPU time and couples host numbers to whatever
# else the machine is doing.  Children (set-up samples, per-workload runs)
# inherit the setting.
for _pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the system under test is missing: no package at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
MIN_REPETITIONS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="host seconds of untraced repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="traced run: write spans.jsonl and layers.json into this directory")
    parser.add_argument("--json", help="all-workloads run: write every metric to this file")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (no golden digests)")
    parser.add_argument("--update-golden", action="store_true",
                        help="run every workload once and re-pin golden.json to the trees it produced")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- one repetition ----------------------------------------------------


def repetition(name: str, seed: int, tiny: bool, tracer=None):
    """Build and run the workload once; returns the finished ``Workload``."""
    gc.collect()  # the previous repetition's object graph must not tax this one
    workload = workloads.build(name, seed, tiny)
    workload.tracer = tracer
    harness.run_workload(workload)
    return workload


def fingerprint(workload) -> dict:
    """Everything that must be bit-identical between repetitions of one seed."""
    return {
        "sim": harness.sim_metrics(workload),
        "counts": harness.counts(workload),
        "digests": [record.digest for record in workload.sessions],
    }


def digest_of(fp: dict) -> str:
    """One hash over every session's tree digest, for compare.py."""
    return hashlib.sha256(json.dumps(fp["digests"]).encode()).hexdigest()


def measure_setup(args) -> float:
    """Median CPU time (user + sys) of fresh interpreters that build the workload and exit."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
        if done.returncode != 0:
            sys.exit(f"run.py: set-up child exited with {done.returncode}")
    return statistics.median(samples)


# -- the two kinds of run ------------------------------------------------


def run_untraced(args) -> dict:
    setup_s = measure_setup(args)
    problems = []
    first = None
    host = []
    measured = 0.0
    golden = "n/a"
    failures = []
    while len(host) < MIN_REPETITIONS or measured < args.seconds:
        workload = repetition(args.workload, args.seed, args.tiny)
        measured += workload.host_region_s
        host.append(harness.host_metrics(workload))
        if first is None:
            _digests, found, golden = oracle.check(workload, pins=not args.tiny)
            problems += found
            first = fingerprint(workload)
            failures = [(r.index, r.failed) for r in workload.sessions if r.failed]
            exact, fold_order = workload.oracle_exact, workload.oracle_fold_order
            if workload.aborted:
                problems.append(f"run cut short: {workload.aborted}")
        else:
            oracle.digest_only(workload)
            again = fingerprint(workload)
            for key in first:
                if again[key] != first[key]:
                    problems.append(f"repetition {len(host)} differs from repetition 1 in {key}")
    metrics = dict(first["sim"])
    for key in host[0]:
        metrics[key] = statistics.median(rep[key] for rep in host)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = first["counts"]
    completed = counts["sessions_attempted"] - counts["sessions_failed"]
    return {
        "metrics": metrics,
        "declared": END_TO_END,
        "samples": {
            "setup_s": SETUP_SAMPLES,
            "session_sim_s.p50": completed,
            "session_sim_s.mean": completed,
            "first_result_sim_s.p50": completed,
            "first_result_sim_s.p90": completed,
            "poll_sim_s.mean": counts["polls"],
            "host_s_per_session": len(host),
            "kernel_events_per_host_s": len(host),
            "physics_events_per_host_s": len(host),
        },
        "counts": counts,
        "detail": {
            "repetitions": {key: [rep[key] for rep in host] for key in host[0]},
            "trees": digest_of(first),
        },
        "problems": problems,
        "failures": failures,
        "notes": [
            f"repetitions: {len(host)} ({measured:.1f} CPU s measured: "
            + " ".join(f"{rep['host_s_per_session'] * counts['sessions_attempted']:.2f}" for rep in host)
            + f"), golden digests: {golden}",
            f"oracle: {exact} sessions dict-equal, {fold_order} equal up to float fold order",
        ],
    }


def run_traced(args) -> dict:
    import layers
    import tracing

    plain = repetition(args.workload, args.seed, args.tiny)
    oracle.digest_only(plain)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = repetition(args.workload, args.seed, args.tiny, tracer)
        tracer.end()
    finally:
        uninstall()
    _digests, problems, golden = oracle.check(traced, pins=not args.tiny)
    if fingerprint(traced) != fingerprint(plain):
        problems.append("tracing changed the simulation: traced and untraced fingerprints differ")
    if traced.aborted:
        problems.append(f"run cut short: {traced.aborted}")
    metrics, samples, found = layers.summarise(tracer, traced, plain)
    problems += found
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(str(out / "spans.jsonl"))
        (out / "layers.json").write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    return {
        "metrics": metrics,
        "declared": PER_LAYER,
        "samples": samples,
        "counts": harness.counts(traced),
        "detail": {"trees": digest_of(fingerprint(traced))},
        "problems": problems,
        "failures": [(r.index, r.failed) for r in traced.sessions if r.failed],
        "notes": [
            f"traced region {traced.host_region_s:.2f} CPU s vs untraced {plain.host_region_s:.2f} CPU s, "
            f"golden digests: {golden}",
            "host share by layer: " + layers.shares(tracer),
        ],
    }


# -- output --------------------------------------------------------------


def report(args, result: dict) -> dict:
    """Human-readable table, then the contract's JSON object as the last line."""
    counts = result["counts"]
    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  -- {WORKLOADS[args.workload]}")
    for note in result["notes"]:
        print(f"#   {note}")
    print(f"{'metric':42s} {'value':>16s} {'unit':8s} {'clock':5s} {'n':>8s}")
    for metric in result["declared"]:
        value = result["metrics"][metric.name]
        n = result["samples"].get(metric.name, "")
        print(f"{metric.name:42s} {value:16.6f} {metric.unit:8s} {metric.clock:5s} {n!s:>8s}")
    attempted, failed = counts["sessions_attempted"], counts["sessions_failed"]
    print(f"sessions_failed_share {failed / attempted:.4f}  ({failed} failed of {attempted} attempted)")
    for index, reason in result["failures"]:
        print(f"  session {index} failed: {reason}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    # Not part of the contract's JSON object: what compare.py needs on top.
    print("#detail " + json.dumps({"counts": counts, "samples": result["samples"], **result["detail"]}))
    line = {
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric.name: {"value": result["metrics"][metric.name], "unit": metric.unit}
            for metric in result["declared"]
        },
    }
    print(json.dumps(line))
    return line


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    combined = {"seed": args.seed, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                command.append("--tiny")
            if args.out and trace:
                command += ["--out", os.path.join(args.out, name)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                print(f"run.py: {name} (trace {trace}) exited with {done.returncode}")
                return done.returncode
            lines = done.stdout.rstrip().split("\n")
            line = json.loads(lines[-1])
            line["detail"] = json.loads(lines[-2][len("#detail "):])
            entry["end_to_end" if trace == 0 else "per_layer"] = line
            if not line["correct"]:
                status = 1
        combined["workloads"][name] = entry
    if args.json:
        Path(args.json).write_text(json.dumps(combined, indent=1) + "\n")
    return status


def update_golden(seed: int) -> int:
    digests = {}
    for name in WORKLOADS:
        workload = repetition(name, seed, tiny=False)
        found, problems, _status = oracle.check(workload, pins=False)
        failed = [r.failed for r in workload.sessions if r.failed]
        if problems or failed:
            print(f"run.py: {name} is not clean, golden.json left alone: {problems + failed}")
            return 1
        digests.update(found)
    oracle.write_golden(digests)
    print(f"run.py: pinned {len(digests)} reference trees in {oracle.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.update_golden:
        return update_golden(args.seed)
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.tiny)
        return 0
    result = run_traced(args) if args.trace else run_untraced(args)
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
