"""Analysis engines: the processes that run user code over dataset parts.

"Analysis engines are processes that accept a dataset and an analysis
script and analyze the dataset using the script to produce a result" (§2).
This package provides:

* the user-code contract (:class:`~repro.engine.base.Analysis` with
  ``start`` / ``process_batch`` / ``process_event`` / ``end`` hooks);
* a source-code **sandbox loader** with versioned hot reload
  (:mod:`repro.engine.sandbox`) — the staging target of the managing class
  loader (§3.5, §3.6);
* the interactive **control state machine** (run / pause / stop / rewind /
  step-N, §3.6) in :mod:`repro.engine.controls`;
* the :class:`~repro.engine.engine.AnalysisEngine` itself, which processes
  events in chunks and emits mergeable snapshots;
* :func:`~repro.engine.runner.run_local`, one engine over a whole batch
  in-process: the reference a session's merged tree is compared with.
"""

from repro.engine.base import Analysis, AnalysisError
from repro.engine.controls import Command, ControlState, Controller
from repro.engine.engine import AnalysisEngine, ChunkResult, Snapshot
from repro.engine.sandbox import CodeBundle, SandboxError, load_analysis

__all__ = [
    "Analysis",
    "AnalysisEngine",
    "AnalysisError",
    "ChunkResult",
    "CodeBundle",
    "Command",
    "ControlState",
    "Controller",
    "SandboxError",
    "Snapshot",
    "load_analysis",
]
