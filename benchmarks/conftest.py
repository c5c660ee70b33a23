"""Shared fixtures for the reproduction benchmarks.

Every benchmark prints its paper-vs-measured table and also writes it to
``benchmarks/out/<name>.txt`` so the results survive pytest's output
capture.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"

# The merge benches time the tests' reference fold (tests/merge_oracle.py).
sys.path.insert(0, str(Path(__file__).parent.parent))


@pytest.fixture
def report():
    """Callable ``report(name, text)``: print and persist a result table."""
    OUT_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        print()
        print(text)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _report
