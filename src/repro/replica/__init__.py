"""Replica management and staging cache for the grid layer.

The paper's fitted cost model makes staging the dominant cost of a grid
session — ``T_grid = 0.338·X + 53 + (62 + 5.3·X)/N`` — and every term of
the staging pipeline (WAN fetch, serial split, scatter) is pure data
movement.  The related replica-management literature (Allcock et al.,
*Secure, Efficient Data Transport and Replica Management for
High-Performance Data-Intensive Computing*) pairs GridFTP with a replica
catalog precisely so that data moved once is never moved again.  This
package supplies that mechanism:

* :mod:`repro.replica.catalog` — :class:`ReplicaCatalog`: logical dataset
  ids (and split *parts*) → physical replicas on storage elements and
  worker caches, with invalidation hooks (a dataset's location never
  changes, so a copy is lost on eviction or node failure, never stale);
* :mod:`repro.replica.cache` — :class:`NodeCache`: per-worker staging
  cache with capacity accounting, LRU + TTL eviction, and per-session
  pinning of parts while a run is active;
* :mod:`repro.replica.selector` — :class:`ReplicaSelector`: picks the
  cheapest source per part from the network topology (SE spindle backlog
  vs peer-to-peer fetch from another worker's cache);
* :mod:`repro.replica.manager` — :class:`ReplicaManager`: the facade the
  session service stages through (warm-hit classification, reference
  alignment, registration, pinning, invalidation, metrics).

The session service consults the catalog before every stage: a warm hit
skips the WAN fetch and/or the scatter entirely, a partial hit moves only
the missing parts, and a fully cold stage falls through to the original
§3.4 pipeline with bit-identical timings.
"""

from repro.replica.cache import CacheEntry, NodeCache
from repro.replica.catalog import Replica, ReplicaCatalog, ReplicaError
from repro.replica.manager import PartSource, ReplicaManager, StagePlan
from repro.replica.selector import ReplicaSelector, SourceEstimate

__all__ = [
    "CacheEntry",
    "NodeCache",
    "PartSource",
    "Replica",
    "ReplicaCatalog",
    "ReplicaError",
    "ReplicaManager",
    "ReplicaSelector",
    "SourceEstimate",
    "StagePlan",
]
