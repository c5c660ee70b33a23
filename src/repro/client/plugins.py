"""The three client plug-ins of the JAS Grid client (§3.1, Fig. 2).

Each plug-in is a thin, testable wrapper over one slice of the service
API; :class:`~repro.client.client.IPAClient` composes them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.aida.tree import ObjectTree
from repro.grid.security import Certificate, Credential, build_chain
from repro.services.envelope import ServiceContainer
from repro.sim import Environment


class GridProxyPlugin:
    """Creates and holds the user's Grid proxy (Fig. 2 step 1).

    "A Grid proxy plug-in is available on the JAS Grid client that creates
    a proxy certificate that can be used to authenticate the client with
    the service."
    """

    def __init__(self, env: Environment, credential: Credential) -> None:
        self.env = env
        self.identity = credential
        self.proxy: Optional[Credential] = None

    def obtain_proxy(self, lifetime: float = 12 * 3600.0) -> Credential:
        """Create (or replace) the short-lived proxy credential."""
        self.proxy = self.identity.issue_proxy(self.env.now, lifetime)
        return self.proxy

    @property
    def chain(self) -> List[Certificate]:
        """The leaf-first certificate chain presented to services."""
        if self.proxy is None:
            raise RuntimeError("no proxy; call obtain_proxy() first")
        return build_chain(self.proxy, self.identity)


class DatasetCatalogPlugin:
    """The dataset chooser (Fig. 3): browse and query the catalog."""

    def __init__(self, container: ServiceContainer) -> None:
        self.container = container

    def browse(self, path: str = "/"):
        """Generator op: list a catalog directory."""
        listing = yield from self.container.request("catalog", "browse", {"path": path})
        return listing

    def search(self, query: str):
        """Generator op: metadata query; returns matching entries."""
        hits = yield from self.container.request("catalog", "search", {"query": query})
        return hits


class RemoteDataPlugin:
    """Polls the AIDA manager over the cheap RMI channel (Fig. 2 step 7).

    Polls are conditional: the plug-in keeps the last tree it was served
    and sends its validator (``progress.merge_generation``) along; while
    the manager's merged tree has not changed the reply is "not modified"
    and :meth:`poll` returns the tree it already holds.  The tree is the
    manager's frozen one, **shared by every poll of one generation**:
    editing it raises (``tree.copy()`` first to edit it).

    *client_id* is a label only (``self.client_id``): the manager keeps
    no state per client, so a poll does not send it.
    """

    def __init__(
        self, container: ServiceContainer, client_id: Optional[str] = None
    ) -> None:
        self.container = container
        self.client_id = client_id
        self.token: Optional[str] = None
        self.session_id: Optional[str] = None
        #: The last tree served and the validator it was served under.
        self._tree: Optional[ObjectTree] = None
        self._have: Optional[int] = None

    def bind(self, session_id: str, token: str) -> None:
        """Attach to a session (the token gates the RMI channel).

        Drops the held tree: a validator only means something to the
        manager that issued it, and a re-bind may be a failover.
        """
        self.session_id = session_id
        self.token = token
        self._tree = None
        self._have = None

    def poll(self):
        """Generator op: fetch the merged tree + progress once."""
        if self.session_id is None:
            raise RuntimeError("plugin not bound to a session")
        args = {"session_id": self.session_id}
        if self._have is not None:
            args["have"] = self._have
        tree, progress = yield from self.container.request(
            "aida",
            "merged",
            args,
            channel="rmi",
            token=self.token,
        )
        if tree is not None:
            self._tree = tree
            self._have = progress.merge_generation
        return self._tree, progress
