"""Discrete-event simulation kernel used by the simulated Grid substrate.

This package provides a small, self-contained, deterministic discrete-event
simulator in the style of SimPy: an :class:`~repro.sim.kernel.Environment`
advances a virtual clock by processing events in time order, and *processes*
(Python generators) model concurrent activities by yielding events they wait
on.

Everything in the IPA reproduction that measures *time* — WAN/LAN transfers,
dataset splitting, scheduler queues, engine start-up, analysis compute — runs
on this kernel, so a "45 minute" experiment from the paper completes in
milliseconds of wall-clock while preserving the timing structure.

Public API
----------
``Environment``
    The event loop and virtual clock.
``Process``, ``Timeout``, ``Event``, ``AnyOf``, ``AllOf``
    Event primitives.
``Resource``, ``Store``
    Shared-resource primitives with queueing.
``Interrupt``
    Exception raised inside a process that another process interrupted.
``NodeFailure``, ``NodeCrash``, ``NodeHang``, ``LinkDown``
    Typed infrastructure-failure causes used by the fault-injection and
    recovery subsystem (:mod:`repro.resilience`).
"""

from repro.sim.errors import (
    Interrupt,
    LinkDown,
    NodeCrash,
    NodeFailure,
    NodeHang,
    SimulationError,
    StopSimulation,
)
from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "LinkDown",
    "NodeCrash",
    "NodeFailure",
    "NodeHang",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "StopSimulation",
    "Timeout",
]
