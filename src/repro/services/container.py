"""Compatibility alias: the request loop lives in :mod:`repro.services.envelope`."""

from repro.services.envelope import ServiceContainer

# benchmarks/e2e/tracing.py patches ``AsyncServiceContainer._admit`` by this
# name; the alias goes when that tracer is retired (ROADMAP item 5).
AsyncServiceContainer = ServiceContainer
