"""The IPA service layer: the Web Services hosted on the manager node.

Mirrors the reference implementation's manager services (§3, Fig. 2):

=====================  ======================================================
Module                 Paper counterpart
=====================  ======================================================
``envelope``           SOAP transport + service container (Globus GT4 host)
``wsrf``               WS-Resource Framework resource refs (session ids)
``control``            Control Service (mutual auth, session creation)
``session``            IPA Session Manager Service (façade + durability)
``session_state``      Its durable state: ``SessionState``, ``apply``, ``fold``
``engine_host``        The analysis-engine job body on each worker
``stager``             Dataset staging for a session
``recovery``           Engine-failure recovery (``RecoverySupervisor``)
``catalog``            Dataset Catalog Service (browse + query language)
``locator``            Locator Service (dataset id -> physical location)
``splitter``           Splitter Service (split + disperse parts)
``registry``           Worker Registry Server (engine ready signals)
``codeloader``         Managing Class Loader (code staging + hot reload)
``aida_manager``       AIDA Manager (merge + client polling over "RMI")
``content``            Deterministic content store (stand-in for real files)
=====================  ======================================================
"""

from repro.services.envelope import Fault, ServiceContainer, ServiceError
from repro.services.wsrf import ResourceHome, ResourceRef

__all__ = [
    "Fault",
    "ResourceHome",
    "ResourceRef",
    "ServiceContainer",
    "ServiceError",
]
