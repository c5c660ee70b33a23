"""Simulated Grid substrate: network, transfers, nodes, scheduler, GRAM, security.

The paper's reference implementation ran on a real Open Science Grid site
(Globus GT4 + GRAM + GridFTP + a 16-node batch queue at SLAC).  This package
is the closest synthetic equivalent: every component is modelled explicitly
on the discrete-event kernel in :mod:`repro.sim`, with bandwidths, latencies,
disk rates and queue policies calibrated against the paper's measurements
(see ``DESIGN.md`` §2 for the substitution rationale and ``repro.core.config``
for the calibration constants).

Modules
-------
``network``   hosts, links, routes and a max-min fair flow model
``transfer``  GridFTP-like file transfers (setup overhead, parallel streams)
``nodes``     worker / manager / storage / compute-element node types
``scheduler`` batch scheduler with a dedicated interactive queue
``gram``      GRAM-like gatekeeper for job submission
``security``  toy GSI: CA, identity + proxy certificates, VO authorization
"""

from repro.grid.network import Host, Link, Network, Route, TransferStats
from repro.grid.nodes import (
    ComputeElement,
    ManagerNode,
    NodeSpec,
    StorageElement,
    WorkerNode,
)

__all__ = [
    "ComputeElement",
    "Host",
    "Link",
    "ManagerNode",
    "Network",
    "NodeSpec",
    "Route",
    "StorageElement",
    "TransferStats",
    "WorkerNode",
]
