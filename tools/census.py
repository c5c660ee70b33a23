#!/usr/bin/env python3
"""Census of ``src/repro``: which functions does no product path call?

    python tools/census.py            # per-module table, total, ceiling check
    python tools/census.py --list     # also name every uncalled function

The product paths are the ones a user or the paper's tables run: the four
e2e workloads (``benchmarks/e2e/run.py --tiny``, untraced and traced, each
in its own subprocess), every script in ``examples/``, ``python -m repro``,
every ``python -m repro.obs`` subcommand and the paper-claim benches named
in ``PAPER_BENCHES``.  Tier-1 unit tests are deliberately *not* a product
path: a function only its own test reaches is what this tool is for.

How: a ``sitecustomize.py`` written to a temp dir and put first on
``PYTHONPATH`` installs a ``sys.setprofile`` / ``threading.setprofile``
hook in every child interpreter when ``REPRO_CENSUS_OUT`` is set.  The hook
remembers each code object it sees a ``call`` for and writes
``(co_filename, co_firstlineno)`` at exit.  Those are joined against the
``ast`` function spans of ``src/repro``; a decorated function's code object
starts at its first decorator, so that is the line it is keyed on.  A line
belongs to its innermost enclosing ``def``; lambdas and comprehensions
belong to the ``def`` around them.

Stdlib only (py3.9+); the benches need ``pytest`` importable, like tier-1.
Exits 1 when the total exceeds ``CEILING`` — the number can only go down.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Function lines no product path calls, as of the last PR that moved it.
#: CI fails above this; lower it whenever the census reads lower.
CEILING = 1250

PAPER_BENCHES = [
    "benchmarks/bench_table1.py",
    "benchmarks/bench_table2.py",
    "benchmarks/bench_figure5.py",
    "benchmarks/bench_equations.py",
    "benchmarks/bench_interactivity.py",
    "benchmarks/bench_queue.py",
    "benchmarks/bench_reload.py",
]

HOOK = '''\
import os

if os.environ.get("REPRO_CENSUS_OUT"):
    import atexit
    import sys
    import threading

    _seen = set()

    def _hook(frame, event, arg, _add=_seen.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        prefix = os.environ["REPRO_CENSUS_PREFIX"]
        lines = sorted(
            "%s\\t%d\\n" % (code.co_filename, code.co_firstlineno)
            for code in list(_seen)
            if code.co_filename.startswith(prefix)
        )
        name = "%d-%s.tsv" % (os.getpid(), os.urandom(4).hex())
        with open(os.path.join(os.environ["REPRO_CENSUS_OUT"], name), "w") as out:
            out.writelines(lines)

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''


def product_commands(scratch: Path) -> list:
    """Every product entry point, as argv lists run from the repo root."""
    python = sys.executable
    telemetry = scratch / "telemetry"
    commands = [
        [python, "benchmarks/e2e/run.py", "--tiny", "--seed", "1", "--seconds", "1",
         "--out", str(scratch / "e2e")],
    ]
    commands += [[python, str(path.relative_to(ROOT))] for path in sorted((ROOT / "examples").glob("*.py"))]
    commands += [
        [python, "-m", "repro"],
        [python, "-m", "repro.obs", "record", "--out", str(telemetry), "--slow", "w3:4"],
        [python, "-m", "repro.obs", "trace", str(telemetry / "spans.jsonl")],
        [python, "-m", "repro.obs", "phases", str(telemetry / "spans.jsonl")],
        [python, "-m", "repro.obs", "events", str(telemetry / "events.jsonl")],
        [python, "-m", "repro.obs", "profile", str(telemetry / "profile.jsonl")],
        [python, "-m", "repro.obs", "dashboard",
         "--events", str(telemetry / "events.jsonl"),
         "--profile", str(telemetry / "profile.jsonl"),
         "--spans", str(telemetry / "spans.jsonl")],
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PAPER_BENCHES],
    ]
    return commands


def run_product_paths() -> set:
    """Drive every product path under the hook; the ``(file, line)`` pairs called."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        scratch = Path(tmp)
        hook_dir, out_dir = scratch / "hook", scratch / "calls"
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC)])
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["REPRO_CENSUS_OUT"] = str(out_dir)
        env["REPRO_CENSUS_PREFIX"] = str(PACKAGE) + os.sep
        for command in product_commands(scratch):
            label = " ".join(command[1:4])
            done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            print(f"  {'ok ' if done.returncode == 0 else 'FAILED'} {label}", file=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"census: a product path failed, so its calls are missing:\n{done.stdout[-2000:]}")
        called = set()
        for path in out_dir.iterdir():
            for line in path.read_text().splitlines():
                filename, lineno = line.rsplit("\t", 1)
                called.add((filename, int(lineno)))
        return called


def function_spans(path: Path) -> list:
    """``(key_line, qualified name, lines owned)`` for every ``def`` in *path*."""
    tree = ast.parse(path.read_text())
    spans = []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                span = [first, prefix + child.name, set(range(child.lineno, child.end_lineno + 1))]
                if owner is not None:
                    owner[2] -= span[2]
                spans.append(span)
                visit(child, prefix + child.name + ".", span)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", owner)
            else:
                visit(child, prefix, owner)

    visit(tree, "", None)
    return [(first, name, len(lines)) for first, name, lines in spans]


def census(called: set):
    """Per-module ``[function lines, uncalled lines]`` and the uncalled functions."""
    modules = defaultdict(lambda: [0, 0])
    uncalled = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for first, name, lines in function_spans(path):
            modules[module][0] += lines
            if (str(path), first) not in called:
                modules[module][1] += lines
                uncalled.append((module, first, name, lines))
    return modules, uncalled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="name every uncalled function")
    args = parser.parse_args(argv)

    print("census: running the product paths under the call hook", file=sys.stderr)
    modules, uncalled = census(run_product_paths())

    if args.list:
        for module, first, name, lines in uncalled:
            print(f"{module}:{first}  {name}  ({lines})")
        print()
    print(f"{'module':<40} {'function lines':>14} {'no product path calls':>22}")
    for module, (total, dead) in sorted(modules.items()):
        if dead:
            print(f"{module:<40} {total:>14} {dead:>22}")
    total = sum(t for t, _ in modules.values())
    dead = sum(d for _, d in modules.values())
    print(f"{'total':<40} {total:>14} {dead:>22}")
    print(f"function lines no product path calls: {dead} (ceiling {CEILING})")
    if dead > CEILING:
        print(f"census: {dead} > {CEILING}: new code that no workload, example, CLI or paper bench runs")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
