"""Failure model and recovery subsystem for the IPA reproduction.

Real OSG worker nodes are preempted, crash, and lose their network
mid-session; DIAL and the GridFTP replica-management work both treat
engine/transfer fault tolerance as a first-class requirement for
interactive grid analysis.  This package provides the three building
blocks the grid and session layers share:

``RetryPolicy`` (:mod:`repro.resilience.retry`)
    Exponential backoff with deterministic jitter and a max-attempt
    budget — used by GridFTP transfers, GRAM submission and session
    admission.
``FailureInjector`` (:mod:`repro.resilience.faults`)
    One method per fault, fired when called: crash / hang / slow node /
    link-down on workers via kernel interrupts, combiner crashes,
    service crashes and restarts, site partitions and heals.
``HeartbeatMonitor`` (:mod:`repro.resilience.heartbeat`)
    Heartbeat bookkeeping and the fixed timings (heartbeat 5 s, timeout
    20 s, spare 60 s, takeover ack 120 s, close grace 120 s) of the
    session service's detect-and-re-dispatch loop.
``SessionJournal`` / ``CheckpointStore`` (:mod:`repro.resilience.journal`,
:mod:`repro.resilience.checkpoint`)
    The durable session layer: a write-ahead journal of state
    transitions plus keyframe/delta checkpoints of merge state, both on
    a crash-surviving :class:`~repro.resilience.journal.DurableStore`
    where every append is durable, enabling cold-start recovery after a
    service-process crash.
"""

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import FailureInjector, ServiceUnavailable
from repro.resilience.heartbeat import HeartbeatMonitor
from repro.resilience.journal import DurableStore, SessionJournal
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CheckpointStore",
    "DurableStore",
    "FailureInjector",
    "HeartbeatMonitor",
    "RetryPolicy",
    "ServiceUnavailable",
    "SessionJournal",
]
