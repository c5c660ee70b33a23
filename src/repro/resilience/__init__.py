"""Failure model and recovery subsystem for the IPA reproduction.

Real OSG worker nodes are preempted, crash, and lose their network
mid-session; DIAL and the GridFTP replica-management work both treat
engine/transfer fault tolerance as a first-class requirement for
interactive grid analysis.  This package provides the three building
blocks the grid and session layers share:

``RetryPolicy`` (:mod:`repro.resilience.retry`)
    Exponential backoff with deterministic jitter, a deadline, and a
    max-attempt budget — used by GridFTP transfers, GRAM submission and
    session admission.
``FailureInjector`` (:mod:`repro.resilience.faults`)
    One method per fault, fired when called: crash / hang / slow node /
    link-down on workers via kernel interrupts, combiner crashes,
    service crashes and restarts, site partitions and heals.
``RecoveryConfig`` / ``HeartbeatMonitor`` (:mod:`repro.resilience.heartbeat`)
    Heartbeat bookkeeping and the tunables of the session service's
    detect-and-re-dispatch loop.
``SessionJournal`` / ``CheckpointStore`` (:mod:`repro.resilience.journal`,
:mod:`repro.resilience.checkpoint`)
    The durable session layer: a write-ahead journal of state
    transitions plus keyframe/delta checkpoints of merge state, both on
    a crash-surviving :class:`~repro.resilience.journal.DurableStore`,
    enabling cold-start recovery after a service-process crash.
"""

from repro.resilience.checkpoint import CheckpointStore, DurabilityConfig
from repro.resilience.faults import FailureInjector, ServiceUnavailable
from repro.resilience.heartbeat import HeartbeatMonitor, RecoveryConfig
from repro.resilience.journal import DurableStore, SessionJournal
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CheckpointStore",
    "DurabilityConfig",
    "DurableStore",
    "FailureInjector",
    "HeartbeatMonitor",
    "RecoveryConfig",
    "RetryPolicy",
    "ServiceUnavailable",
    "SessionJournal",
]
