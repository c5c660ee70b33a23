"""The profiler: exact folds, JSONL, reconciliation with the phase totals."""

import math

import pytest

from repro.core.experiment import run_grid_experiment
from repro.obs.__main__ import record_run
from repro.obs.exporters import phase_totals, phase_totals_records, spans_from_jsonl
from repro.obs.profile import (
    fold_records,
    fold_tracer,
    profile_from_jsonl,
    profile_to_jsonl,
    render_profile,
)

PHASES = (
    "session_setup",
    "move_whole",
    "split",
    "move_parts",
    "stage_code",
    "analysis",
)


def phase_sums(weights, phases):
    """``fsum`` of each phase's stacks (``phase`` and ``phase;...``)."""
    return {
        phase: math.fsum(
            w
            for stack, w in weights.items()
            if stack == phase or stack.startswith(phase + ";")
        )
        for phase in phases
    }


def record(span_id, parent_id, name, start, end, **attrs):
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "end": end,
        "attrs": attrs,
    }


# -- exact fold over synthetic records -------------------------------------

def test_fold_records_attributes_slices_to_deepest_active_span():
    records = [
        record("r", None, "run", 0.0, 10.0, phase="analysis"),
        record("a", "r", "chunk", 1.0, 4.0),
        record("b", "a", "merge", 2.0, 3.0),
        record("c", "r", "io", 8.0, 12.0),  # clipped to the root's end
    ]
    weights = fold_records(records)
    assert weights == {
        "analysis": 5.0,  # self time: [0,1) + [4,8)
        "analysis;chunk": 2.0,  # [1,2) + [3,4)
        "analysis;chunk;merge": 1.0,  # [2,3): deepest active wins
        "analysis;io": 2.0,  # [8,10): clipped
    }
    assert phase_sums(weights, ["analysis"]) == {"analysis": 10.0}


def test_fold_records_folds_unphased_spans_by_root_chain_and_skips_open_ones():
    records = [
        record("r", None, "run", 0.0, 10.0),  # no phase on the chain
        record("w1", "r", "work", 2.0, 6.0),
        record("w2", "r", "work", 4.0, 12.0),  # outlives its parent
        record("g", "w1", "io", 3.0, 4.0),
        record("p", "r", "stage", 1.0, 2.0, phase="move_whole"),
        record("q", "p", "xfer", 1.0, 2.0),  # under a phase: phase stack
        record("open", None, "pending", 0.0, None, phase="split"),
    ]
    weights = fold_records(records)
    assert weights == {
        # run: open [0, 10), a child open over [1, 10).
        "run": 1.0,
        # Each concurrent span weighs its own childless time.
        "run;work": (6.0 - 2.0 - 1.0) + (12.0 - 4.0),
        "run;work;io": 1.0,
        "move_whole": 0.0,
        "move_whole;xfer": 1.0,
    }
    assert fold_records([]) == {}


def test_fold_records_anchors_each_phase_sum_bit_equal():
    # Many tiny descendant slices whose float sum would drift: the anchor
    # nudges self time until fsum equals the root duration exactly.
    children = [
        record(f"c{i}", "r", "step", 0.1 * i, 0.1 * i + 0.1)
        for i in range(100)
    ]
    records = [record("r", None, "run", 0.0, 10.0, phase="analysis")] + children
    weights = fold_records(records)
    total = math.fsum(
        w
        for stack, w in weights.items()
        if stack == "analysis" or stack.startswith("analysis;")
    )
    assert total == 10.0  # bit-equal, not approx


def test_fold_records_multiple_roots_same_phase_accumulate():
    records = [
        record("r1", None, "part", 0.0, 2.0, phase="move_parts"),
        record("r2", None, "part", 5.0, 8.0, phase="move_parts"),
    ]
    assert phase_sums(fold_records(records), ["move_parts"]) == {"move_parts": 5.0}


# -- reconciliation with the grid experiment -------------------------------

@pytest.fixture(scope="module")
def traced_run():
    return run_grid_experiment(
        96.0, 8, events_per_mb=4, collect_tree=False, observability=True
    )


def test_folded_profile_reconciles_exactly_with_breakdown(traced_run):
    """The tentpole acceptance: profile and GridBreakdown cannot disagree."""
    weights = fold_tracer(traced_run.obs.tracer)
    folded = phase_sums(weights, PHASES)
    totals = phase_totals(traced_run.obs.tracer)
    for phase in PHASES:
        # Sum-equal (bit-equal, no tolerance) against both the trace's
        # per-phase totals and the experiment's reported breakdown.
        assert folded[phase] == totals[phase], phase
        assert folded[phase] == getattr(traced_run, phase), phase


def test_folded_profile_has_stack_depth(traced_run):
    weights = fold_tracer(traced_run.obs.tracer)
    # Staging phases decompose into transfer sub-stacks.
    assert any(
        stack.startswith("move_whole;") and "ftp.transfer" in stack
        for stack in weights
    )
    assert any(
        stack.startswith("move_parts;") and "ftp.part" in stack
        for stack in weights
    )
    # Three frames deep: code staging -> broadcast -> transfer.
    assert any(stack.count(";") >= 2 for stack in weights)


# -- the profile ``python -m repro.obs record`` writes ----------------------

def test_record_run_writes_the_exact_profile(tmp_path):
    kwargs = dict(nodes=4, size_mb=96.0, n_events=8_000)
    record_run(tmp_path / "a", **kwargs)
    record_run(tmp_path / "b", **kwargs)
    text = (tmp_path / "a" / "profile.jsonl").read_text()
    assert (tmp_path / "b" / "profile.jsonl").read_text() == text

    weights = profile_from_jsonl(text)
    # The engines' compute is there, beside the staging phases.
    engine = [s for s in weights if s.split(";")[-1] == "engine.run"]
    assert engine and all(weights[s] > 0 for s in engine)
    # Each phase's stacks sum exactly to that phase's total in the spans.
    totals = phase_totals_records(
        spans_from_jsonl((tmp_path / "a" / "spans.jsonl").read_text())
    )
    assert set(totals) >= {"move_whole", "split", "move_parts", "stage_code"}
    assert phase_sums(weights, totals) == totals


# -- export / rendering ----------------------------------------------------

def test_profile_jsonl_round_trip():
    weights = {"analysis;run": 12.5, "split": 3.0}
    assert profile_from_jsonl(profile_to_jsonl(weights)) == weights
    assert profile_from_jsonl("") == {}


def test_render_profile_orders_by_weight():
    text = render_profile({"a": 1.0, "b;deep": 9.0}, limit=1)
    lines = text.splitlines()
    assert lines[0].startswith("stack")
    assert len(lines) == 2  # header + 1 limited row
    assert lines[1].startswith("b;deep")
    assert "#" in lines[1]
    assert render_profile({}) == "(no profile samples)"
