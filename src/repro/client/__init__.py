"""The client layer: a headless Java-Analysis-Studio equivalent.

The JAS3 client was "enhanced with three plug-in modules that communicate
with the Web Services" (§3.1):

* the **Grid proxy plug-in** — creates the proxy certificate and performs
  mutual authentication;
* the **dataset catalog plug-in** — the dataset chooser dialog (Fig. 3);
* the **remote data plug-in** — polls the AIDA manager over RMI and keeps
  the displayed histograms fresh (Fig. 4).

:class:`~repro.client.client.IPAClient` composes the three plug-ins into
the user-facing facade driving the session workflow, and
:mod:`repro.client.display` renders the live ASCII dashboard in place of
the JAS plot windows.
"""

from repro.client.client import IPAClient, PollResult
from repro.client.display import dashboard
from repro.client.plugins import (
    DatasetCatalogPlugin,
    GridProxyPlugin,
    RemoteDataPlugin,
)

__all__ = [
    "DatasetCatalogPlugin",
    "GridProxyPlugin",
    "IPAClient",
    "PollResult",
    "RemoteDataPlugin",
    "dashboard",
]
