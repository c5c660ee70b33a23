"""Multi-site federation: WAN-aware brokering, replica placement, failover.

The paper frames IPA as a single-site service a desktop client dials
into; real grid deployments (OSG/LCG) run many such sites against shared
datasets.  This package stands up N simulated sites on one WAN topology
and brokers every client session across them:

:class:`Federation` (:mod:`repro.federation.topology`)
    N :class:`~repro.core.site.GridSite` stacks in one simulation, SEs
    joined by calibrated inter-site WAN links, plus site-partition
    faults and per-site panel stats.
:class:`FederatedCatalog` (:mod:`repro.federation.catalog`)
    Dataset→site placement (home site, sites holding a whole copy),
    wrapping each site's locator/replica stack.
:class:`SessionBroker` (:mod:`repro.federation.broker`)
    Data-locality / admission-headroom / queue-depth scoring of
    candidate sites.
:class:`ReplicationPolicy` (:mod:`repro.federation.policy`)
    Pin-N-copies placement, SE→SE third-party migration with
    WAN-cost-ranked sources, byte-pressure eviction.
:class:`FederatedClient` (:mod:`repro.federation.client`)
    Broker-routed :class:`~repro.client.client.IPAClient` with ranked
    fallback on refusal and transparent failover on site partition.
"""

from repro.federation.broker import SessionBroker, SiteScore
from repro.federation.catalog import FederatedCatalog, Placement
from repro.federation.client import FederatedClient
from repro.federation.errors import FederationError, SitePartitioned
from repro.federation.policy import ReplicationPolicy
from repro.federation.topology import Federation

__all__ = [
    "FederatedCatalog",
    "FederatedClient",
    "Federation",
    "FederationError",
    "Placement",
    "ReplicationPolicy",
    "SessionBroker",
    "SitePartitioned",
    "SiteScore",
]
