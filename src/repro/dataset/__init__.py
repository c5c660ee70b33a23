"""Dataset substrate: event model and synthetic generator.

The paper analyzed 471 MB of simulated International-Linear-Collider events
(record-based: one independent physics event per record).  We cannot ship
that proprietary simulation output, so this package provides the closest
synthetic equivalent (DESIGN.md §2):

* a vectorized four-vector toolkit (:mod:`repro.dataset.physics`);
* a columnar event model (:mod:`repro.dataset.events`) — events are jets
  and leptons with four-momenta plus a ground-truth process label, stored
  as flat per-particle arrays with per-event offsets (an
  :class:`~repro.dataset.events.EventBatch`; an ``EventChain`` reads
  several batches end to end);
* a seeded generator (:mod:`repro.dataset.generator`) producing
  e+e- → ZH signal (m_H = 120 GeV, H → bb) over WW / ZZ / qq backgrounds
  with Gaussian detector smearing — the dijet invariant-mass spectrum shows
  a Higgs peak exactly like the paper's sample analysis.

A dataset lives in the site's content store as seeded blocks of events;
:mod:`repro.services.splitter` cuts it into per-engine parts (§3.4).
"""

from repro.dataset.events import EventBatch, PROCESS_CODES, PROCESS_NAMES
from repro.dataset.generator import GeneratorConfig, ILCEventGenerator

__all__ = [
    "EventBatch",
    "GeneratorConfig",
    "ILCEventGenerator",
    "PROCESS_CODES",
    "PROCESS_NAMES",
]
