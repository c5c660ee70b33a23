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
``FaultPlan`` / ``FailureInjector`` (:mod:`repro.resilience.faults`)
    Declarative, seeded fault schedules (crash / hang / slow node /
    link-down) applied to workers via kernel interrupts.
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
from repro.resilience.faults import (
    FAULT_KINDS,
    SERVICE_FAULT_KINDS,
    SITE_FAULT_KINDS,
    FailureInjector,
    FaultPlan,
    ServiceFault,
    ServiceUnavailable,
    SiteFault,
    WorkerFault,
)
from repro.resilience.heartbeat import HeartbeatMonitor, RecoveryConfig
from repro.resilience.journal import DurableStore, SessionJournal
from repro.resilience.retry import RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "SITE_FAULT_KINDS",
    "CheckpointStore",
    "DurabilityConfig",
    "DurableStore",
    "FailureInjector",
    "FaultPlan",
    "HeartbeatMonitor",
    "RecoveryConfig",
    "RetryPolicy",
    "ServiceFault",
    "ServiceUnavailable",
    "SessionJournal",
    "SiteFault",
    "WorkerFault",
]
