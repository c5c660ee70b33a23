"""Unit tests for the control state machine and the code sandbox."""

import pytest

from repro.engine.base import Analysis
from repro.engine.controls import (
    Command,
    ControlMessage,
    ControlState,
    Controller,
)
from repro.engine.sandbox import CodeBundle, SandboxError, load_analysis


# ---------------------------------------------------------------------------
# Controls
# ---------------------------------------------------------------------------

def test_control_message_validation():
    with pytest.raises(ValueError):
        ControlMessage("fly")
    with pytest.raises(ValueError):
        ControlMessage(Command.STEP)
    with pytest.raises(ValueError):
        ControlMessage(Command.STEP, 0)
    ControlMessage(Command.STEP, 5)  # ok


def test_controller_starts_idle():
    controller = Controller()
    assert controller.state == ControlState.IDLE
    assert controller.pending == 0


def test_run_transitions_to_running():
    controller = Controller()
    controller.run()
    controller.drain()
    assert controller.state == ControlState.RUNNING


def test_pause_only_pauses_running():
    controller = Controller()
    controller.pause()
    controller.drain()
    assert controller.state == ControlState.IDLE
    controller.run()
    controller.pause()
    controller.drain()
    assert controller.state == ControlState.PAUSED


def test_stop_is_terminal_for_run():
    controller = Controller()
    controller.run()
    controller.stop()
    controller.run()  # ignored after stop
    controller.drain()
    assert controller.state == ControlState.STOPPED


def test_rewind_reenables_after_stop():
    controller = Controller()
    controller.run()
    controller.stop()
    controller.rewind()
    controller.run()
    controller.drain()
    assert controller.rewind_requested
    assert controller.state == ControlState.RUNNING
    controller.acknowledge_rewind()
    assert not controller.rewind_requested


def test_step_budget_flow():
    controller = Controller()
    controller.step(100)
    controller.drain()
    assert controller.state == ControlState.RUNNING
    assert controller.chunk_allowance(500) == 100
    controller.consume_step_budget(100)
    assert controller.state == ControlState.PAUSED
    assert controller.step_budget is None
    assert controller.chunk_allowance(500) == 500


def test_step_budget_partial_consumption():
    controller = Controller()
    controller.step(100)
    controller.drain()
    controller.consume_step_budget(40)
    assert controller.step_budget == 60
    assert controller.state == ControlState.RUNNING
    assert controller.chunk_allowance(500) == 60


def test_run_clears_step_budget():
    controller = Controller()
    controller.step(100)
    controller.run()
    controller.drain()
    assert controller.step_budget is None


def test_commands_applied_in_order():
    controller = Controller()
    controller.run()
    controller.pause()
    controller.run()
    controller.drain()
    assert controller.state == ControlState.RUNNING


# ---------------------------------------------------------------------------
# Sandbox
# ---------------------------------------------------------------------------

GOOD_SOURCE = '''
class MyAnalysis(Analysis):
    name = "mine"

    def __init__(self, threshold=1.0):
        self.threshold = threshold

    def start(self, tree):
        tree.put("/h", Histogram1D("h", bins=10, lower=0, upper=10))

    def process_batch(self, batch, tree):
        pass
'''


def test_load_analysis_success():
    analysis = load_analysis(GOOD_SOURCE)
    assert isinstance(analysis, Analysis)
    assert analysis.name == "mine"
    assert analysis.threshold == 1.0


def test_load_analysis_with_parameters():
    analysis = load_analysis(GOOD_SOURCE, parameters={"threshold": 2.5})
    assert analysis.threshold == 2.5


def test_load_analysis_syntax_error():
    with pytest.raises(SandboxError, match="syntax"):
        load_analysis("def broken(:\n  pass")


def test_load_analysis_no_subclass():
    with pytest.raises(SandboxError, match="no Analysis subclass"):
        load_analysis("x = 1")


def test_load_analysis_ambiguous_requires_class_name():
    source = GOOD_SOURCE + "\nclass Another(Analysis):\n    pass\n"
    with pytest.raises(SandboxError, match="multiple"):
        load_analysis(source)
    analysis = load_analysis(source, class_name="Another")
    assert type(analysis).__name__ == "Another"


def test_load_analysis_unknown_class_name():
    with pytest.raises(SandboxError, match="not found"):
        load_analysis(GOOD_SOURCE, class_name="Ghost")


def test_load_analysis_construction_failure():
    source = '''
class Fragile(Analysis):
    def __init__(self):
        raise RuntimeError("nope")
'''
    with pytest.raises(SandboxError, match="construction failed"):
        load_analysis(source)


def test_sandbox_blocks_forbidden_imports():
    source = '''
import os

class Sneaky(Analysis):
    pass
'''
    with pytest.raises(SandboxError, match="not allowed"):
        load_analysis(source)


def test_sandbox_allows_numpy_and_math():
    source = '''
import numpy
import math

class Fine(Analysis):
    value = math.pi

    def process_batch(self, batch, tree):
        return numpy.zeros(1)
'''
    analysis = load_analysis(source)
    assert analysis.value == pytest.approx(3.14159, abs=1e-4)


def test_sandbox_provides_aida_names():
    source = '''
class UsesAida(Analysis):
    def start(self, tree):
        tree.put("/h1", Histogram1D("h1", bins=2, lower=0, upper=1))
        tree.put("/h2", Histogram2D("h2", x_bins=2, x_lower=0, x_upper=1,
                                    y_bins=2, y_lower=0, y_upper=1))
        tree.put("/p", Profile1D("p", bins=2, lower=0, upper=1))
'''
    from repro.aida.tree import ObjectTree

    analysis = load_analysis(source)
    tree = ObjectTree()
    analysis.start(tree)
    assert len(tree) == 3


def test_sandbox_import_crash_reported():
    source = '''
raise ValueError("boom at import")

class Never(Analysis):
    pass
'''
    with pytest.raises(SandboxError, match="failed at import"):
        load_analysis(source)


# -- compile-once cache: only the code object is shared between loads -------

def test_loading_one_source_twice_gives_distinct_classes_and_namespaces():
    first = load_analysis(GOOD_SOURCE)
    second = load_analysis(GOOD_SOURCE)
    assert type(first) is not type(second)
    type(first).marker = "only on the first load"
    assert not hasattr(type(second), "marker")
    first_globals = type(first).start.__globals__
    second_globals = type(second).start.__globals__
    assert first_globals is not second_globals
    assert first_globals["__builtins__"] is not second_globals["__builtins__"]
    first_globals["leak"] = 1
    assert "leak" not in second_globals


def test_syntax_error_raised_on_every_load():
    for _ in range(3):
        with pytest.raises(SandboxError, match="syntax"):
            load_analysis("class Broken(Analysis:\n    pass")


def test_forbidden_import_raised_on_every_load_of_cached_code():
    at_import = "import os\n\nclass Sneaky(Analysis):\n    pass\n"
    for _ in range(2):
        with pytest.raises(SandboxError, match="not allowed"):
            load_analysis(at_import)
    at_run = '''
class Lazy(Analysis):
    def process_batch(self, batch, tree):
        import os
'''
    for _ in range(2):
        with pytest.raises(SandboxError, match="not allowed"):
            load_analysis(at_run).process_batch(None, None)


# ---------------------------------------------------------------------------
# CodeBundle
# ---------------------------------------------------------------------------

def test_bundle_instantiate_stamps_version():
    bundle = CodeBundle(GOOD_SOURCE, version=7)
    analysis = bundle.instantiate()
    assert analysis.version == 7


def test_bundle_size_kb():
    bundle = CodeBundle("x" * 1500)
    assert bundle.size_kb == pytest.approx(1.5)


def test_bundle_updated_bumps_version():
    bundle = CodeBundle(GOOD_SOURCE, parameters={"threshold": 1.0})
    updated = bundle.updated(parameters={"threshold": 9.0})
    assert updated.version == 2
    assert updated.source == bundle.source
    assert updated.parameters == {"threshold": 9.0}
    assert bundle.parameters == {"threshold": 1.0}  # original untouched
    replaced = updated.updated(source="class X(Analysis):\n    pass")
    assert replaced.version == 3
    assert "class X" in replaced.source


def test_bundle_updated_source_compiles_the_new_text():
    bundle = CodeBundle(GOOD_SOURCE)
    assert bundle.instantiate().name == "mine"  # warms the compile cache
    edited = bundle.updated(source=GOOD_SOURCE.replace('"mine"', '"edited"'))
    assert edited.instantiate().name == "edited"
    assert bundle.instantiate().name == "mine"


def test_base_analysis_process_event_required():
    from repro.aida.tree import ObjectTree
    from repro.dataset.events import EventBatch

    class Lazy(Analysis):
        pass

    batch = EventBatch.from_events([(0, 0, 1.0, [(81, 1.0, 0, 0, 0)])])
    with pytest.raises(NotImplementedError):
        Lazy().process_batch(batch, ObjectTree())
