"""Property-based tests: the engine survives arbitrary control sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import counting
from repro.dataset.generator import ILCEventGenerator
from repro.engine.controls import ControlState
from repro.engine.engine import AnalysisEngine
from repro.engine.sandbox import load_analysis

N_EVENTS = 600

commands = st.lists(
    st.one_of(
        st.just(("run",)),
        st.just(("pause",)),
        st.just(("stop",)),
        st.just(("rewind",)),
        st.tuples(st.just("step"), st.integers(min_value=1, max_value=300)),
        st.just(("chunk",)),  # drive one process_chunk
    ),
    min_size=1,
    max_size=40,
)


def apply(engine, command):
    verb = command[0]
    if verb == "chunk":
        return engine.process_chunk()
    controller = engine.controller
    if verb == "step":
        controller.step(command[1])
    else:
        getattr(controller, verb)()
    return None


@given(commands)
@settings(max_examples=60, deadline=None)
def test_engine_invariants_under_arbitrary_controls(batch_cmds):
    batch = ILCEventGenerator(seed=5).generate(N_EVENTS)
    engine = AnalysisEngine("prop", chunk_events=100)
    engine.load_data(batch)
    engine.load_analysis(load_analysis(counting.SOURCE))
    previous_cursor = 0
    previous_run = 0
    for command in batch_cmds:
        result = apply(engine, command)
        # Invariants after every step:
        assert 0 <= engine.cursor <= N_EVENTS
        assert engine.run_id >= previous_run
        if engine.run_id == previous_run:
            # Within one run, the cursor never goes backwards.
            assert engine.cursor >= previous_cursor or result is None
        previous_cursor = engine.cursor
        previous_run = engine.run_id
        if result is not None:
            assert result.state in ControlState.ALL
            assert result.events >= 0
    # Whatever happened, the tree's entry count equals the cursor (the
    # counter analysis fills exactly one entry per event).
    if engine.cursor > 0 and engine.tree.exists("/counts/process"):
        assert engine.tree.get("/counts/process").entries == engine.cursor


@given(commands)
@settings(max_examples=30, deadline=None)
def test_engine_can_always_finish_after_any_history(batch_cmds):
    """From any control history, rewind + run drives to completion."""
    batch = ILCEventGenerator(seed=5).generate(N_EVENTS)
    engine = AnalysisEngine("prop", chunk_events=100)
    engine.load_data(batch)
    engine.load_analysis(load_analysis(counting.SOURCE))
    for command in batch_cmds:
        apply(engine, command)
    engine.controller.rewind()
    total = engine.run_to_completion()
    assert total == N_EVENTS
    assert engine.done
    assert engine.tree.get("/counts/process").entries == N_EVENTS


@given(
    st.lists(st.integers(min_value=1, max_value=250), min_size=1, max_size=10)
)
@settings(max_examples=40, deadline=None)
def test_step_sequences_are_exact(steps):
    """Consecutive step(n) commands advance by exactly min(n, remaining)."""
    batch = ILCEventGenerator(seed=5).generate(N_EVENTS)
    engine = AnalysisEngine("prop", chunk_events=100)
    engine.load_data(batch)
    engine.load_analysis(load_analysis(counting.SOURCE))
    expected = 0
    for n in steps:
        engine.controller.step(n)
        while True:
            result = engine.process_chunk()
            if result.events == 0:
                break
        expected = min(expected + n, N_EVENTS)
        assert engine.cursor == expected
